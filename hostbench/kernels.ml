(* Bechamel kernels: the steady-state operation of each layer, timed in
   isolation.  Every kernel reports host nanoseconds per operation, so
   a change to one layer shows here even when the workloads dilute it.

   Each fixture builds its own simulated machine (or file, or cache)
   once; the staged closure is the operation being measured and [ops]
   is how many of them one closure call performs.

   Six of these (region ralloc, malloc/free, gc alloc, write barrier,
   stack scan, creg compile) are also in bench/main.ml, whose v5 micro
   record still uses its own copies; when that writer is retired or
   switched to this module, those copies go. *)

open Bechamel
module Api = Workloads.Api

let api mode = Api.create ~with_cache:false mode

let region_ralloc ~safe () =
  let api = api (Api.Region { safe }) in
  let layout = Regions.Cleanup.layout_words 4 in
  Staged.stage (fun () ->
      Api.with_frame api ~nslots:1 ~ptr_slots:[ 0 ] (fun fr ->
          let r = Api.newregion api in
          Api.set_local_ptr api fr 0 r;
          for _ = 1 to 64 do
            ignore (Api.ralloc api r layout)
          done;
          ignore (Api.deleteregion api fr 0)))

let region_delete () =
  let api = api (Api.Region { safe = true }) in
  Staged.stage (fun () ->
      Api.with_frame api ~nslots:1 ~ptr_slots:[ 0 ] (fun fr ->
          Api.set_local_ptr api fr 0 (Api.newregion api);
          ignore (Api.deleteregion api fr 0)))

let malloc_free backend () =
  let api = api (Api.Direct backend) in
  let ptrs = Array.make 64 0 in
  Staged.stage (fun () ->
      Api.with_frame api ~nslots:1 ~ptr_slots:[] (fun _ ->
          for i = 0 to 63 do
            ptrs.(i) <- Api.malloc api 16
          done;
          for i = 0 to 63 do
            Api.free api ptrs.(i)
          done))

let gc_alloc () =
  let api = api (Api.Direct Api.Gc) in
  Staged.stage (fun () ->
      Api.with_frame api ~nslots:1 ~ptr_slots:[] (fun _ ->
          for _ = 1 to 64 do
            ignore (Api.malloc api 24)
          done))

let write_barrier () =
  let api = api (Api.Region { safe = true }) in
  let layout = Regions.Cleanup.layout ~size_bytes:8 ~ptr_offsets:[ 0 ] in
  let a, b =
    Api.with_frame api ~nslots:1 ~ptr_slots:[ 0 ] (fun fr ->
        let r = Api.newregion api in
        Api.set_local_ptr api fr 0 r;
        let a = Api.ralloc api r layout in
        let b = Api.ralloc api r layout in
        Api.set_local_ptr api fr 0 0;
        (a, b))
  in
  Staged.stage (fun () ->
      for _ = 1 to 64 do
        Api.store_ptr api ~addr:a b
      done)

(* 32 frames of locals scanned and unscanned around one deleteregion. *)
let stack_scan () =
  let api = api (Api.Region { safe = true }) in
  Staged.stage (fun () ->
      Api.with_frame api ~nslots:2 ~ptr_slots:[ 0; 1 ] (fun fr0 ->
          Api.set_local_ptr api fr0 0 (Api.newregion api);
          let rec deep n =
            if n = 0 then ignore (Api.deleteregion api fr0 0)
            else
              Api.with_frame api ~nslots:4 ~ptr_slots:[ 0; 1 ] (fun _ ->
                  deep (n - 1))
          in
          deep 32))

(* Word accesses spread over 64 pages with a stride that mixes cache
   hits and misses. *)
let pages = 64
let span_bytes = pages * 4096
let addr base i = base + (i * 517 * 4 mod span_bytes)

let memory_access ~store () =
  let mem = Sim.Memory.create ~with_cache:false () in
  let base = Sim.Memory.map_pages mem pages in
  let i = ref 0 in
  Staged.stage (fun () ->
      for _ = 1 to 256 do
        if store then Sim.Memory.store mem (addr base !i) !i
        else ignore (Sim.Memory.load mem (addr base !i));
        incr i
      done)

let cache_access ~write () =
  let cache = Sim.Cache.create Sim.Machine.ultrasparc_i (Sim.Cost.create ()) in
  let i = ref 0 in
  Staged.stage (fun () ->
      for _ = 1 to 256 do
        if write then Sim.Cache.write cache (addr 4096 !i)
        else Sim.Cache.read cache (addr 4096 !i);
        incr i
      done)

let cost_instr () =
  let cost = Sim.Cost.create () in
  Staged.stage (fun () ->
      for _ = 1 to 256 do
        Sim.Cost.instr cost 1
      done)

(* Decode-only pass over an in-memory generated trace: the
   [Trace.Format] share of a replay, with no allocator behind it. *)
let decode ~trace () =
  let rd =
    match Trace.Format.open_in_memory trace with
    | Ok rd -> rd
    | Error msg -> failwith msg
  in
  let poke ~addr:_ ~v:_ = () and store ~addr:_ ~v:_ = () in
  let resolve _ a _ = a in
  Staged.stage (fun () ->
      Trace.Format.reset rd;
      let rec loop () =
        match Trace.Format.next_fused rd ~poke ~resolve ~store with
        | Trace.Format.End -> ()
        | _ -> loop ()
      in
      loop ())

let kernel_build_id = "hostbench-kernel"

let cache_with_cell ~dir (cell : Results.Cell.t) =
  let cache = Results.Cache.create ~dir ~build_id:kernel_build_id () in
  let cell =
    Results.Cell.make ~size:cell.Results.Cell.size ~build_id:kernel_build_id
      cell.Results.Cell.result
  in
  Results.Cache.store cache cell;
  (cache, cell)

let cache_find ~dir cell () =
  let cache, cell = cache_with_cell ~dir cell in
  let r = cell.Results.Cell.result in
  Staged.stage (fun () ->
      match
        Results.Cache.find cache ~workload:r.Workloads.Results.workload
          ~mode:r.Workloads.Results.mode ~size:cell.Results.Cell.size ~seed:0
          ~plan:"none"
      with
      | Some _ -> ()
      | None -> failwith "kernel: cached cell not found")

let cache_store ~dir cell () =
  let cache, cell = cache_with_cell ~dir cell in
  Staged.stage (fun () -> Results.Cache.store cache cell)

(* One request/response pair through the wire codec, both directions. *)
let protocol_codec (cell : Results.Cell.t) () =
  let r = cell.Results.Cell.result in
  let req =
    Serve.Protocol.request ~id:7 ~workload:r.Workloads.Results.workload
      ~mode:r.Workloads.Results.mode ~size:"quick" ()
  in
  let resp =
    Serve.Protocol.Cell { id = 7; warm = true; cell = Results.Cell.to_json cell }
  in
  Staged.stage (fun () ->
      (match Serve.Protocol.decode_request (Serve.Protocol.encode_request req) with
      | Ok _ -> ()
      | Error msg -> failwith msg);
      match
        Serve.Protocol.decode_response (Serve.Protocol.encode_response resp)
      with
      | Ok _ -> ()
      | Error msg -> failwith msg)

let creg_compile () =
  let src =
    "struct list { int i; struct list @next; };\n\
     int main() {\n\
    \  region r = newregion();\n\
    \  struct list @l = null;\n\
    \  int i;\n\
    \  i = 0;\n\
    \  while (i < 32) {\n\
    \    struct list @p = ralloc(r, struct list);\n\
    \    p->i = i; p->next = l; l = p; i = i + 1;\n\
    \  }\n\
    \  l = null;\n\
    \  return deleteregion(r);\n\
     }"
  in
  Staged.stage (fun () -> ignore (Creg.Compile.compile src))

type env = { trace : string; records : int; dir : string; cell : Results.Cell.t }

let kernels : (string * (env -> int * (unit -> unit) Staged.t)) list =
  [
    ("kernel.sim_memory.load_ns", fun _ -> (256, memory_access ~store:false ()));
    ("kernel.sim_memory.store_ns", fun _ -> (256, memory_access ~store:true ()));
    ("kernel.sim_cache.read_ns", fun _ -> (256, cache_access ~write:false ()));
    ("kernel.sim_cache.write_ns", fun _ -> (256, cache_access ~write:true ()));
    ("kernel.sim_cost.instr_ns", fun _ -> (256, cost_instr ()));
    ("kernel.alloc.sun.malloc_free_ns", fun _ -> (64, malloc_free Api.Sun ()));
    ("kernel.alloc.bsd.malloc_free_ns", fun _ -> (64, malloc_free Api.Bsd ()));
    ("kernel.alloc.lea.malloc_free_ns", fun _ -> (64, malloc_free Api.Lea ()));
    ("kernel.gc.alloc_ns", fun _ -> (64, gc_alloc ()));
    ("kernel.region.ralloc_ns", fun _ -> (64, region_ralloc ~safe:true ()));
    ("kernel.region_unsafe.ralloc_ns", fun _ -> (64, region_ralloc ~safe:false ()));
    ("kernel.region.deleteregion_ns", fun _ -> (1, region_delete ()));
    ("kernel.barrier.store_ptr_ns", fun _ -> (64, write_barrier ()));
    ("kernel.stack_scan_ns", fun _ -> (1, stack_scan ()));
    ("kernel.trace.decode_ns", fun e -> (e.records, decode ~trace:e.trace ()));
    ("kernel.results_cache.find_ns", fun e -> (1, cache_find ~dir:e.dir e.cell ()));
    ("kernel.results_cache.store_ns", fun e -> (1, cache_store ~dir:e.dir e.cell ()));
    ("kernel.protocol.codec_ns", fun e -> (1, protocol_codec e.cell ()));
    ("kernel.creg.compile_ns", fun _ -> (1, creg_compile ()));
  ]

let names = List.map fst kernels

(* Host ns per operation for every kernel, each fixture built just
   before it is measured.  [work_dir] receives the decode trace and
   the cache kernels' entries; [cell] (any golden cell) is the payload
   of the cache and codec kernels. *)
let run ~work_dir ~cell ~quota_s =
  let trace = Filename.concat work_dir "kernel.trace" in
  Trace.Gen.generate ~out:trace { Trace.Gen.default with Trace.Gen.objects = 2_000 };
  let records =
    match Trace.Format.open_file trace with
    | Ok rd ->
        let n = Trace.Format.records rd in
        Trace.Format.close rd;
        n
    | Error msg -> failwith msg
  in
  let env = { trace; records; dir = Filename.concat work_dir "kernel-cache"; cell } in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_s) ~kde:None
      ~stabilize:false ()
  in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  List.map
    (fun (name, make) ->
      let ops, fn = make env in
      let raw = Benchmark.all cfg [ clock ] (Test.make ~name fn) in
      let per_run =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some (t :: _) -> t | _ -> acc)
          (Analyze.all ols clock raw) nan
      in
      (name, per_run /. float_of_int ops))
    kernels
