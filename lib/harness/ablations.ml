open Workloads

(* 1. Deferred (high-water mark) vs eager local reference counting.
   Compiled C@ code writes region pointers to locals constantly (every
   list traversal step); the creg VM routes those through
   set_local_ptr, so it is the right vehicle for this ablation. *)
let eager_program =
  "struct list { int i; struct list @next; };\n\
   struct list @cons(region r, int x, struct list @l) {\n\
  \  struct list @p = ralloc(r, struct list);\n\
  \  p->i = x; p->next = l; return p;\n\
   }\n\
   int sum(struct list @l) {\n\
  \  int s; s = 0;\n\
  \  while (l != null) { s = s + l->i; l = l->next; }\n\
  \  return s;\n\
   }\n\
   int main() {\n\
  \  region r = newregion();\n\
  \  struct list @l = null;\n\
  \  int i; i = 0;\n\
  \  while (i < 200) { l = cons(r, i, l); i = i + 1; }\n\
  \  int total; total = 0; i = 0;\n\
  \  while (i < 100) { total = total + sum(l); i = i + 1; }\n\
  \  l = null;\n\
  \  int ok = deleteregion(r);\n\
  \  return total * ok;\n\
   }"

let eager_locals () =
  let prog = Creg.Compile.compile eager_program in
  let run eager_locals =
    let mem = Sim.Memory.create ~with_cache:true () in
    let mut = Regions.Mutator.create mem in
    let lib =
      Regions.Region.create ~safe:true ~eager_locals (Regions.Cleanup.create ())
        mut
    in
    let outcome = Creg.Vm.run (Creg.Vm.create lib prog) in
    assert (outcome.Creg.Vm.exit_value > 0);
    let c = Sim.Memory.cost mem in
    (Sim.Cost.cycles c, Sim.Cost.refcount_instrs c)
  in
  let dc, dr = run false in
  let ec, er = run true in
  "Deferred local counting (the paper's design, section 4.2.1) vs eager \
   counting of every local pointer write, on a creg list workout (every \
   traversal step writes a region pointer to a local):\n\n"
  ^ Render.md_table
      ~header:[ "local counting"; "cycles"; "refcount instrs" ]
      [
        [ "deferred"; Render.mega dc; Render.mega dr ];
        [ "eager"; Render.mega ec; Render.mega er ];
      ]
  ^ Printf.sprintf
      "\n\nEager counting costs %+.1f%% cycles and %.1fx the refcount work."
      (100. *. (float_of_int ec /. float_of_int dc -. 1.))
      (float_of_int er /. float_of_int (max 1 dr))

(* 2. Region-structure offsetting: many live regions whose reference
   counts are updated in turn; without the 64-byte offsets the count
   words of successive regions collide in the direct-mapped caches. *)
let offsetting () =
  let run ~ways offset =
    let machine = Sim.Machine.with_associativity Sim.Machine.ultrasparc_i ~ways in
    let api =
      Api.create ~machine ~with_cache:true ~offset_regions:offset
        Matrix.region_safe
    in
    Api.with_frame api ~nslots:2 ~ptr_slots:[ 0; 1 ] (fun _fr ->
        (* 8 hot regions on consecutive pages: without offsetting
           their structures all sit at the same page offset and fold
           onto 4 L1 sets (pages 4 apart collide in a 16 KB
           direct-mapped cache); the 64-byte offsets, which cycle over
           8 positions, give all 8 structures distinct lines. *)
        let n = 8 in
        let cell = Regions.Cleanup.layout ~size_bytes:8 ~ptr_offsets:[ 0 ] in
        let regions = Array.init n (fun _ -> Api.newregion api) in
        let objs = Array.map (fun r -> Api.ralloc api r cell) regions in
        for round = 1 to 4000 do
          for i = 0 to n - 1 do
            Api.store_ptr api ~addr:(objs.(i)) objs.((i + round) mod n)
          done
        done);
    Sim.Cost.read_stall_cycles (Api.cost api)
  in
  let row caches ~ways offset =
    [ caches; (if offset then "on" else "off"); Render.mega (run ~ways offset) ]
  in
  "64-byte region-structure offsetting (section 4.1): 8 hot regions on \
   consecutive pages, barriered writes.  The associative rows ask what \
   the trick is worth without the UltraSparc's direct-mapped caches:\n\n"
  ^ Render.md_table
      ~header:[ "caches"; "offsetting"; "read-stall cycles" ]
      [
        row "direct-mapped (the UltraSparc)" ~ways:1 true;
        row "direct-mapped (the UltraSparc)" ~ways:1 false;
        row "2-way" ~ways:2 false;
        row "8-way" ~ways:8 false;
      ]

(* 3. The compile-time sameregion optimisation (paper section 5.6). *)
let sameregion_hint () =
  let run hint =
    let api = Api.create ~with_cache:false Matrix.region_safe in
    (match Api.region_lib api with
    | Some lib ->
        Api.with_frame api ~nslots:1 ~ptr_slots:[ 0 ] (fun fr ->
            let r = Api.newregion api in
            Api.set_local_ptr api fr 0 r;
            let cell = Regions.Cleanup.layout ~size_bytes:8 ~ptr_offsets:[ 0; 4 ] in
            let a = Api.ralloc api r cell in
            let b = Api.ralloc api r cell in
            for _ = 1 to 10_000 do
              Regions.Region.write_ptr lib ~same_region_hint:hint ~addr:a b
            done)
    | None -> assert false);
    Sim.Cost.refcount_instrs (Api.cost api)
  in
  let dynamic = run false and hinted = run true in
  "Sameregion writes, 10k pointer stores within one region:\n\n"
  ^ Render.md_table
      ~header:[ "barrier"; "refcount instrs" ]
      [
        [ "dynamic (the paper's implementation)"; Render.mega dynamic ];
        [ "compile-time sameregion hint (section 5.6)"; Render.mega hinted ];
      ]
  ^ Printf.sprintf "\n\nThe hint makes these stores %.1fx cheaper."
      (float_of_int dynamic /. float_of_int (max 1 hinted))

(* 4. Region granularity: continued-fraction steps per temporary
   region in cfrac. *)
let granularity () =
  let runs =
    List.map
      (fun chunk ->
        let api = Api.create ~with_cache:true Matrix.region_safe in
        ignore (Cfrac.run api { Cfrac.default_params with Cfrac.chunk });
        (chunk, Sim.Cost.cycles (Api.cost api), Api.os_bytes api))
      [ 1; 4; 16; 64; 256 ]
  in
  let least f = List.fold_left (fun acc r -> min acc (f r)) max_int runs in
  let fastest = least (fun (_, c, _) -> c)
  and smallest = least (fun (_, _, os) -> os) in
  let over best v = 100. *. (float_of_int v /. float_of_int best -. 1.) in
  let _, per_step, _ = List.hd runs in
  let coarse, _, coarsest = List.nth runs (List.length runs - 1) in
  "Region granularity: cfrac continued-fraction steps per temporary \
   region:\n\n"
  ^ Render.md_table
      ~header:[ "steps per region"; "cycles"; "OS memory kB" ]
      (List.map
         (fun (chunk, c, os) ->
           [ string_of_int chunk; Render.mega c; Render.kb os ])
         runs)
  ^ Printf.sprintf
      "\n\nA region per step costs %+.0f%% cycles over the fastest \
       granularity; regions of %d steps cost %+.0f%% OS memory over the \
       smallest."
      (over fastest per_step) coarse (over smallest coarsest)

let render () =
  String.concat "\n\n"
    [ eager_locals (); offsetting (); sameregion_hint (); granularity () ]
