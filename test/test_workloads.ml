(* Tests for the benchmark workloads: the bignum substrate, each
   workload's correctness, and cross-allocator determinism (every
   memory manager must compute the same answer — the paper's programs
   do not change behaviour when relinked against another malloc). *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let quick_api ?(mode = Workloads.Api.Region { safe = true }) () =
  Workloads.Api.create ~with_cache:false mode

(* ------------------------------------------------------------------ *)
(* Bignum *)

let bn_ctx () =
  let api = quick_api () in
  Workloads.Api.with_frame api ~nslots:1 ~ptr_slots:[ 0 ] (fun fr ->
      let r = Workloads.Api.newregion api in
      Workloads.Api.set_local_ptr api fr 0 r;
      { Workloads.Bignum.api; alloc = (fun w -> Workloads.Api.rstralloc api r (w * 4)) })

let test_bignum_roundtrip () =
  let ctx = bn_ctx () in
  List.iter
    (fun n ->
      let a = Workloads.Bignum.of_int ctx n in
      Alcotest.(check (option int)) "roundtrip" (Some n)
        (Workloads.Bignum.to_int_opt ctx a);
      check_str "decimal" (string_of_int n) (Workloads.Bignum.to_decimal ctx a))
    [ 0; 1; 9; 65535; 65536; 123456789; 1 lsl 40 ]

let test_bignum_decimal () =
  let ctx = bn_ctx () in
  let s = "123456789012345678901234567890" in
  let a = Workloads.Bignum.of_decimal ctx s in
  check_str "decimal roundtrip" s (Workloads.Bignum.to_decimal ctx a);
  check "limbs" 7 (Workloads.Bignum.num_limbs ctx a)

let test_bignum_arith_basics () =
  let ctx = bn_ctx () in
  let bn = Workloads.Bignum.of_int ctx in
  let to_i a = Option.get (Workloads.Bignum.to_int_opt ctx a) in
  check "add" 100000000
    (to_i (Workloads.Bignum.add ctx (bn 99999999) (bn 1)));
  check "sub" 99999998 (to_i (Workloads.Bignum.sub ctx (bn 99999999) (bn 1)));
  check "mul" 998001 (to_i (Workloads.Bignum.mul ctx (bn 999) (bn 999)));
  let q, r = Workloads.Bignum.divmod ctx (bn 1000000) (bn 999) in
  check "div" 1001 (to_i q);
  check "mod" 1 (to_i r);
  let q, r = Workloads.Bignum.divmod_small ctx (bn 1000000) 999 in
  check "div small" 1001 (to_i q);
  check "mod small" 1 r;
  check "mod_small" 1 (Workloads.Bignum.mod_small ctx (bn 1000000) 999);
  check "isqrt" 1000 (to_i (Workloads.Bignum.isqrt ctx (bn 1000001)));
  check "gcd" 12 (to_i (Workloads.Bignum.gcd ctx (bn 36) (bn 24)));
  check "mulmod" 24 (to_i (Workloads.Bignum.mulmod ctx (bn 6) (bn 4) (bn 100)));
  check_bool "cmp" true (Workloads.Bignum.compare_nat ctx (bn 5) (bn 6) < 0);
  check_bool "even" true (Workloads.Bignum.is_even ctx (bn 4));
  check_bool "odd" false (Workloads.Bignum.is_even ctx (bn 5))

let test_bignum_errors () =
  let ctx = bn_ctx () in
  let bn = Workloads.Bignum.of_int ctx in
  (match Workloads.Bignum.sub ctx (bn 1) (bn 2) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Workloads.Bignum.divmod ctx (bn 1) (bn 0) with
  | _ -> Alcotest.fail "expected Division_by_zero"
  | exception Division_by_zero -> ()

(* qcheck: bignum ops agree with OCaml int arithmetic on values that
   fit, including multi-limb ones. *)
let qcheck_bignum_matches_int =
  let gen = QCheck.(pair (int_bound (1 lsl 30)) (int_bound (1 lsl 30))) in
  QCheck.Test.make ~count:200 ~name:"bignum agrees with int arithmetic" gen
    (fun (x, y) ->
      let ctx = bn_ctx () in
      let bn = Workloads.Bignum.of_int ctx in
      let to_i a = Workloads.Bignum.to_int_opt ctx a in
      let a = bn x and b = bn y in
      to_i (Workloads.Bignum.add ctx a b) = Some (x + y)
      && to_i (Workloads.Bignum.mul ctx a b) = Some (x * y)
      && (y = 0
         ||
         let q, r = Workloads.Bignum.divmod ctx a b in
         to_i q = Some (x / y) && to_i r = Some (x mod y))
      && to_i (Workloads.Bignum.sub ctx (Workloads.Bignum.add ctx a b) b) = Some x)

let qcheck_bignum_isqrt =
  QCheck.Test.make ~count:100 ~name:"isqrt bounds" QCheck.(int_bound (1 lsl 40))
    (fun n ->
      let ctx = bn_ctx () in
      let r =
        Option.get
          (Workloads.Bignum.to_int_opt ctx
             (Workloads.Bignum.isqrt ctx (Workloads.Bignum.of_int ctx n)))
      in
      (r * r <= n) && (r + 1) * (r + 1) > n)

let qcheck_bignum_decimal_roundtrip =
  QCheck.Test.make ~count:100 ~name:"decimal strings round-trip"
    QCheck.(int_bound (1 lsl 50))
    (fun n ->
      let ctx = bn_ctx () in
      let s = string_of_int n in
      let a = Workloads.Bignum.of_decimal ctx s in
      Workloads.Bignum.to_decimal ctx a = s
      && Workloads.Bignum.to_int_opt ctx a = Some n)

let qcheck_bignum_gcd_properties =
  QCheck.Test.make ~count:100 ~name:"gcd divides both arguments"
    QCheck.(pair (int_range 1 (1 lsl 30)) (int_range 1 (1 lsl 30)))
    (fun (x, y) ->
      let ctx = bn_ctx () in
      let bn = Workloads.Bignum.of_int ctx in
      let g =
        Option.get
          (Workloads.Bignum.to_int_opt ctx
             (Workloads.Bignum.gcd ctx (bn x) (bn y)))
      in
      g > 0 && x mod g = 0 && y mod g = 0
      &&
      (* and is the greatest: gcd(x/g, y/g) = 1 *)
      let rec euclid a b = if b = 0 then a else euclid b (a mod b) in
      euclid (x / g) (y / g) = 1)

(* ------------------------------------------------------------------ *)
(* Individual workloads *)

let test_cfrac_finds_factor () =
  let api = quick_api () in
  let out = Workloads.Cfrac.run api Workloads.Cfrac.default_params in
  (* 2000009000009 = 1000003 * 2000003 *)
  check_bool "factor found" true
    (match out.Workloads.Cfrac.factor with
    | Some "1000003" | Some "2000003" -> true
    | _ -> false)

let test_cfrac_small_factor_shortcut () =
  let api = quick_api () in
  let out =
    Workloads.Cfrac.run api
      { Workloads.Cfrac.default_params with n = "1000006"; bound = 100 }
  in
  check_bool "even number factored instantly" true
    (out.Workloads.Cfrac.factor = Some "2" && out.iterations = 0)

let test_grobner_basis_properties () =
  let api = quick_api () in
  let out = Workloads.Grobner.run api Workloads.Grobner.default_params in
  check_bool "basis grew" true
    (out.Workloads.Grobner.basis_size >= 4);
  check_bool "pairs processed" true (out.pairs_processed > 0)

let test_mudlle_compiles () =
  let api = quick_api () in
  let out = Workloads.Mudlle.run api Workloads.Mudlle.default_params in
  check "all functions compiled"
    (Workloads.Mudlle.default_params.Workloads.Mudlle.functions
    * Workloads.Mudlle.default_params.Workloads.Mudlle.repeats)
    out.Workloads.Mudlle.functions_compiled;
  check_bool "code emitted" true (out.code_words > 0)

let test_mudlle_rejects_direct_mode () =
  let api = quick_api ~mode:(Workloads.Api.Direct Workloads.Api.Lea) () in
  match Workloads.Mudlle.run api Workloads.Mudlle.default_params with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_lcc_compiles () =
  let api = quick_api () in
  let out = Workloads.Lcc.run api Workloads.Lcc.default_params in
  check_bool "statements" true (out.Workloads.Lcc.statements > 100);
  check_bool "triples" true (out.triples > out.statements)

let test_tile_finds_topic_boundaries () =
  let api = quick_api () in
  let p = Workloads.Tile.default_params in
  let out = Workloads.Tile.run api p in
  (* topic changes every 25 sentences x 12 words = 300 tokens; blocks
     of 80 tokens: boundaries must exist *)
  check_bool "found boundaries" true (out.Workloads.Tile.boundaries > 0);
  check "token count" (p.copies * p.sentences * p.words_per_sentence) out.tokens

let test_moss_detects_plagiarised_pair () =
  let api = quick_api () in
  let out = Workloads.Moss.run api Workloads.Moss.default_params in
  let a, b = out.Workloads.Moss.best_pair in
  (* plagiarised pairs are (0,1), (2,3), ... (8,9) *)
  check_bool "best pair is a plagiarised pair" true
    (b = a + 1 && a mod 2 = 0 && a < 10);
  check_bool "matches found" true (out.matches > 0)

let test_game_random_lifetimes_defeat_regions () =
  let peak mode params =
    let api = quick_api ~mode () in
    ignore (Workloads.Game.run api params);
    Workloads.Api.os_bytes api
  in
  let m = peak (Workloads.Api.Direct Workloads.Api.Lea) Workloads.Game.default_params in
  let r = peak (Workloads.Api.Region { safe = true }) Workloads.Game.default_params in
  check_bool "regions balloon with play-driven lifetimes" true
    (float_of_int r > 1.8 *. float_of_int m)

let test_game_correlated_lifetimes_fit_regions () =
  let peak mode params =
    let api = quick_api ~mode () in
    ignore (Workloads.Game.run api params);
    Workloads.Api.os_bytes api
  in
  let m =
    peak (Workloads.Api.Direct Workloads.Api.Lea) Workloads.Game.correlated_params
  in
  let r =
    peak (Workloads.Api.Region { safe = true }) Workloads.Game.correlated_params
  in
  check_bool "regions competitive when lifetimes correlate" true
    (float_of_int r < 1.7 *. float_of_int m)

let test_game_all_regions_deleted () =
  let api = quick_api () in
  ignore (Workloads.Game.run api Workloads.Game.default_params);
  match Workloads.Api.region_rstats api with
  | Some rs -> check "no live regions" 0 (Regions.Rstats.live_regions rs)
  | None -> Alcotest.fail "expected region stats"

let test_game_emulated_mode_works () =
  let api = quick_api ~mode:(Workloads.Api.Emulated Workloads.Api.Lea) () in
  let out = Workloads.Game.run api Workloads.Game.default_params in
  check "all spawned" (120 * 40) out.Workloads.Game.spawned;
  check "all freed at the end" 0
    (Alloc.Stats.live_bytes (Workloads.Api.requested_stats api))

(* ------------------------------------------------------------------ *)
(* Cross-allocator determinism: same program, same answer *)

let test_deterministic_across_modes (spec : Workloads.Workload.spec) () =
  let summaries =
    List.map
      (fun mode ->
        let api = Workloads.Api.create ~with_cache:false mode in
        spec.Workloads.Workload.run api Workloads.Workload.Quick)
      (Workloads.Workload.modes_for spec)
  in
  match summaries with
  | first :: rest ->
      List.iteri
        (fun i s ->
          check_str (Printf.sprintf "mode %d agrees" (i + 1)) first s)
        rest
  | [] -> Alcotest.fail "no modes"

(* ------------------------------------------------------------------ *)
(* Workload-level safety: all region deletions succeed, nothing leaks *)

let test_region_workloads_delete_everything () =
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      let api = quick_api () in
      ignore (spec.run api Workloads.Workload.Quick);
      match Workloads.Api.region_rstats api with
      | Some rs ->
          check
            (spec.Workloads.Workload.name ^ ": all regions deleted")
            0
            (Regions.Rstats.live_regions rs)
      | None -> Alcotest.fail "expected region stats")
    Workloads.Workload.all

let test_malloc_workloads_free_everything () =
  List.iter
    (fun name ->
      let spec = Workloads.Workload.find name in
      let api = quick_api ~mode:(Workloads.Api.Direct Workloads.Api.Lea) () in
      ignore (spec.Workloads.Workload.run api Workloads.Workload.Quick);
      check (name ^ ": no live bytes") 0
        (Alloc.Stats.live_bytes (Workloads.Api.requested_stats api)))
    [ "cfrac"; "grobner"; "tile"; "moss" ]

(* ------------------------------------------------------------------ *)
(* Api mode plumbing *)

let test_api_unsupported_ops () =
  let direct = quick_api ~mode:(Workloads.Api.Direct Workloads.Api.Sun) () in
  (match Workloads.Api.newregion direct with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let region = quick_api () in
  match Workloads.Api.malloc region 8 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_api_gc_free_is_logical () =
  let api = quick_api ~mode:(Workloads.Api.Direct Workloads.Api.Gc) () in
  Workloads.Api.with_frame api ~nslots:1 ~ptr_slots:[] (fun _fr ->
      let p = Workloads.Api.malloc api 40 in
      let c = Workloads.Api.cost api in
      let before = Sim.Cost.total_instrs c in
      Workloads.Api.free api p;
      check "free is compiled out" before (Sim.Cost.total_instrs c);
      check "but logically freed" 0
        (Alloc.Stats.live_bytes (Workloads.Api.requested_stats api)))

let test_api_emulation_overhead_tracked () =
  let api = quick_api ~mode:(Workloads.Api.Emulated Workloads.Api.Lea) () in
  Workloads.Api.with_frame api ~nslots:1 ~ptr_slots:[ 0 ] (fun fr ->
      let r = Workloads.Api.newregion api in
      Workloads.Api.set_local api fr 0 r;
      for _ = 1 to 10 do
        ignore (Workloads.Api.rstralloc api r 20)
      done;
      (* 12 for the region record + 8 per object *)
      check "overhead" (12 + (10 * 8)) (Workloads.Api.emulation_overhead_bytes api);
      ignore (Workloads.Api.deleteregion api fr 0);
      check "live after delete" 0
        (Alloc.Stats.live_bytes (Workloads.Api.requested_stats api)))

(* A simulated load, store or unit of work allocates nothing on the
   host: 10 000 calls and 10 calls move the minor heap by the same
   amount (the measurement's own boxed floats).  Fails if one of them
   goes back to building a closure per call, or if the abstract
   [Sim.Cost.t] their charges go through starts boxing. *)
let test_api_access_allocates_nothing op () =
  let api =
    Workloads.Api.create ~with_cache:true (Workloads.Api.Direct Workloads.Api.Sun)
  in
  let p = Sim.Memory.map_pages (Workloads.Api.memory api) 1 in
  let minor_words n =
    let before = Gc.minor_words () in
    for i = 1 to n do
      op api p i
    done;
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.)) "same minor words" (minor_words 10)
    (minor_words 10_000)

let api_load api p _ = ignore (Workloads.Api.load api p)
let api_store api p i = Workloads.Api.store api p i
let api_work api _ i = Workloads.Api.work api (i land 7)

(* Allocator bookkeeping allocates nothing on the host either: after a
   warm-up that grows every table it touches, 10 000 operations and 10
   move the minor heap by the same amount.  Fails if the Stats address
   table, the free-list policies, the cost-context switch or the
   collector's page lookup go back to allocating per call. *)
let same_minor_words name op =
  let minor_words n =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      op ()
    done;
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.)) name (minor_words 10) (minor_words 10_000)

let test_malloc_free_allocates_nothing () =
  List.iter
    (fun backend ->
      let api =
        Workloads.Api.create ~with_cache:true (Workloads.Api.Direct backend)
      in
      let warm =
        Array.init 2_000 (fun i -> Workloads.Api.malloc api (8 + (i mod 64 * 8)))
      in
      Array.iter (Workloads.Api.free api) warm;
      same_minor_words
        (Workloads.Api.mode_name (Workloads.Api.Direct backend))
        (fun () -> Workloads.Api.free api (Workloads.Api.malloc api 24)))
    Workloads.Api.[ Sun; Bsd; Lea ]

let test_gc_malloc_allocates_nothing () =
  let mem = Sim.Memory.create () in
  let a, gc =
    Gcsim.Boehm.create ~trigger_min_bytes:(1 lsl 28) ~roots:(fun _ -> ()) mem
  in
  for _ = 1 to 20_000 do
    ignore (a.Alloc.Allocator.malloc 24)
  done;
  (* Nothing is rooted: the collection frees every object, and the
     measured mallocs below reuse its free lists without a collection. *)
  Gcsim.Boehm.collect gc;
  let collections = Gcsim.Boehm.collections gc in
  same_minor_words "gc" (fun () -> ignore (a.Alloc.Allocator.malloc 24));
  check "no collection in the window" collections (Gcsim.Boehm.collections gc)

(* Region bookkeeping allocates a bounded amount per operation: on a
   region whose pages come from the pool, [Api.ralloc] allocates only
   the argument tuple of its [Sim.Cost.within] call (4 words), and a
   safe [deleteregion] allocates per page, not per object. *)
let pin_layout = Regions.Cleanup.layout ~size_bytes:12 ~ptr_offsets:[ 0; 8 ]

let test_ralloc_allocates_little safe () =
  let api = quick_api ~mode:(Workloads.Api.Region { safe }) () in
  Workloads.Api.with_frame api ~nslots:1 ~ptr_slots:[ 0 ] (fun fr ->
      let fill n =
        let r = Workloads.Api.newregion api in
        Workloads.Api.set_local_ptr api fr 0 r;
        let before = Gc.minor_words () in
        for _ = 1 to n do
          ignore (Workloads.Api.ralloc api r pin_layout)
        done;
        let words = Gc.minor_words () -. before in
        check_bool "deleted" true (Workloads.Api.deleteregion api fr 0);
        words
      in
      ignore (fill 10_010);
      let per_call = (fill 10_010 -. fill 10) /. 10_000. in
      if per_call > 4. then
        Alcotest.failf "Api.ralloc allocates %.2f words per call (> 4)" per_call)

let test_deleteregion_allocates_per_page () =
  let api = quick_api () in
  Workloads.Api.with_frame api ~nslots:2 ~ptr_slots:[ 0; 1 ] (fun fr ->
      (* Every object points into a second region, so the cleanup scan
         destroys a counted reference per object. *)
      let other = Workloads.Api.newregion api in
      Workloads.Api.set_local_ptr api fr 1 other;
      let target = Workloads.Api.ralloc api other pin_layout in
      let delete_words n =
        let r = Workloads.Api.newregion api in
        Workloads.Api.set_local_ptr api fr 0 r;
        for _ = 1 to n do
          let p = Workloads.Api.ralloc api r pin_layout in
          Workloads.Api.store_ptr api ~addr:p target
        done;
        let before = Gc.minor_words () in
        check_bool "deleted" true (Workloads.Api.deleteregion api fr 0);
        Gc.minor_words () -. before
      in
      ignore (delete_words 10_010);
      let per_object = (delete_words 10_010 -. delete_words 10) /. 10_000. in
      if per_object > 0.5 then
        Alcotest.failf "deleteregion allocates %.2f words per object (> 0.5)"
          per_object)

(* ------------------------------------------------------------------ *)
(* Region accounting against a per-object model *)

(* The facade's region accounting ([requested_stats], the library's
   [Alloc.Stats] and [Rstats], [emulation_overhead_bytes]) must equal
   what a model that remembers every object derives, after every
   operation, under both region columns and two emulated ones.  Picks
   are resolved modulo what is live when the operation runs. *)
type rop =
  | R_new
  | R_ralloc of int * int  (* region, layout *)
  | R_rstr of int * int  (* region, size *)
  | R_array of int * int * int  (* region, n, layout *)
  | R_store of int * int * int * int
      (* source object, field, target region, target object; a target
         object pick divisible by 5 stores null *)
  | R_delete of int

let model_layouts =
  Regions.Cleanup.
    [|
      layout ~size_bytes:8 ~ptr_offsets:[ 4 ];
      layout ~size_bytes:16 ~ptr_offsets:[ 0; 8 ];
      layout ~size_bytes:10 ~ptr_offsets:[ 4 ];
      layout ~size_bytes:40 ~ptr_offsets:[ 0; 4; 36 ];
      layout_words 3;
    |]

let gen_rop =
  QCheck.Gen.(
    let pick = int_bound 1000 in
    let lay = int_bound (Array.length model_layouts - 1) in
    frequency
      [
        (3, return R_new);
        (8, map2 (fun r l -> R_ralloc (r, l)) pick lay);
        (3, map2 (fun r n -> R_rstr (r, n)) pick (int_range 1 300));
        (1, map2 (fun r n -> R_rstr (r, n)) pick (int_range 4093 13000));
        (2, map3 (fun r n l -> R_array (r, n, l)) pick (int_range 1 20) lay);
        (6, map4 (fun a b c d -> R_store (a, b, c, d)) pick pick pick pick);
        (3, map (fun r -> R_delete r) pick);
      ])

let show_rop = function
  | R_new -> "new"
  | R_ralloc (r, l) -> Printf.sprintf "ralloc(%d,L%d)" r l
  | R_rstr (r, n) -> Printf.sprintf "rstralloc(%d,%d)" r n
  | R_array (r, n, l) -> Printf.sprintf "rarrayalloc(%d,%d,L%d)" r n l
  | R_store (a, b, c, d) -> Printf.sprintf "store(%d,%d,%d,%d)" a b c d
  | R_delete r -> Printf.sprintf "delete(%d)" r

type mobj = {
  addr : int;
  fields : int array;  (* pointer-field offsets *)
  targets : int array;  (* model id of the region each field points into, -1 *)
}

type mregion = {
  id : int;
  slot : int;
  handle : int;
  mutable objs : mobj list;
  mutable count : int;
  mutable bytes : int;
}

let model_slots = 8
let round4 n = (n + 3) land lnot 3

let run_region_model mode ops =
  let open Workloads in
  let api = Api.create ~with_cache:false mode in
  let safe = mode = Api.Region { safe = true } in
  let emulated = match mode with Api.Emulated _ -> true | _ -> false in
  let live = ref [] (* newest first *) and next_id = ref 0 in
  let allocs = ref 0 and frees = ref 0 and total = ref 0 in
  let live_bytes = ref 0 and max_live = ref 0 in
  let regions = ref 0 and live_regions = ref 0 and max_regions = ref 0 in
  let max_region = ref 0 and all_allocs = ref 0 in
  let emu = ref 0 and emu_max = ref 0 in
  let emu_add n =
    if emulated then begin
      emu := !emu + n;
      emu_max := max !emu_max !emu
    end
  in
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) (Api.mode_name mode) in
  let nth_mod l k = List.nth l (k mod List.length l) in
  let record reg ~addr ~size (layout : Regions.Cleanup.layout option) =
    let b = round4 size in
    incr allocs;
    total := !total + b;
    live_bytes := !live_bytes + b;
    max_live := max !max_live !live_bytes;
    reg.count <- reg.count + 1;
    reg.bytes <- reg.bytes + b;
    max_region := max !max_region reg.bytes;
    incr all_allocs;
    emu_add 8;
    let fields =
      match layout with
      | Some l -> Array.of_list l.Regions.Cleanup.ptr_offsets
      | None -> [||]
    in
    reg.objs <-
      { addr; fields; targets = Array.make (Array.length fields) (-1) }
      :: reg.objs
  in
  let compare_stats what st =
    let eq name got want =
      if got <> want then fail "%s %s: %d, model %d" what name got want
    in
    eq "allocs" (Alloc.Stats.allocs st) !allocs;
    eq "frees" (Alloc.Stats.frees st) !frees;
    eq "total" (Alloc.Stats.total_bytes st) !total;
    eq "live" (Alloc.Stats.live_bytes st) !live_bytes;
    eq "max live" (Alloc.Stats.max_live_bytes st) !max_live
  in
  let compare_all () =
    compare_stats "requested" (Api.requested_stats api);
    if Api.emulation_overhead_bytes api <> !emu_max then
      fail "emulation overhead %d, model %d"
        (Api.emulation_overhead_bytes api)
        !emu_max;
    match (Api.region_lib api, Api.region_rstats api) with
    | Some lib, Some rs ->
        compare_stats "library" (Regions.Region.stats lib);
        let eq name got want =
          if got <> want then fail "rstats %s: %d, model %d" name got want
        in
        eq "total" (Regions.Rstats.total_regions rs) !regions;
        eq "live" (Regions.Rstats.live_regions rs) !live_regions;
        eq "max live" (Regions.Rstats.max_live_regions rs) !max_regions;
        eq "max bytes" (Regions.Rstats.max_region_bytes rs) !max_region;
        let avg n =
          if !regions = 0 then 0.0
          else float_of_int n /. float_of_int !regions
        in
        if Regions.Rstats.avg_region_bytes rs <> avg !total then
          fail "rstats avg bytes";
        if Regions.Rstats.avg_allocs_per_region rs <> avg !all_allocs then
          fail "rstats avg allocs"
    | None, None -> if not emulated then fail "no region library"
    | _ -> fail "region library without rstats"
  in
  let all_slots = List.init model_slots Fun.id in
  Api.with_frame api ~nslots:model_slots ~ptr_slots:all_slots (fun fr ->
      let step = function
        | R_new ->
            let used = List.map (fun g -> g.slot) !live in
            let free = List.filter (fun i -> not (List.mem i used)) all_slots in
            (match free with
            | [] -> ()
            | slot :: _ ->
                let handle = Api.newregion api in
                Api.set_local_ptr api fr slot handle;
                live :=
                  { id = !next_id; slot; handle; objs = []; count = 0; bytes = 0 }
                  :: !live;
                incr next_id;
                incr regions;
                incr live_regions;
                max_regions := max !max_regions !live_regions;
                emu_add 12)
        | R_ralloc (k, l) when !live <> [] ->
            let reg = nth_mod !live k and layout = model_layouts.(l) in
            let addr = Api.ralloc api reg.handle layout in
            record reg ~addr ~size:layout.Regions.Cleanup.size_bytes (Some layout)
        | R_rstr (k, size) when !live <> [] ->
            let reg = nth_mod !live k in
            let addr = Api.rstralloc api reg.handle size in
            record reg ~addr ~size None
        | R_array (k, n, l) when !live <> [] ->
            let reg = nth_mod !live k and layout = model_layouts.(l) in
            let addr = Api.rarrayalloc api reg.handle ~n layout in
            let size =
              n
              * (if emulated then Regions.Cleanup.stride layout
                 else layout.Regions.Cleanup.size_bytes)
            in
            record reg ~addr ~size None
        | R_store (a, f, k, o) -> (
            let sources =
              List.concat_map
                (fun g ->
                  List.filter (fun ob -> Array.length ob.fields > 0) g.objs)
                !live
            in
            match sources with
            | [] -> ()
            | _ ->
                let src = nth_mod sources a in
                let fi = f mod Array.length src.fields in
                let dst = nth_mod !live k in
                let value, target =
                  if o mod 5 = 0 then (0, -1)
                  else
                    match dst.objs with
                    | [] -> (dst.handle, dst.id)
                    | objs -> ((nth_mod objs o).addr, dst.id)
                in
                Api.store_ptr api ~addr:(src.addr + src.fields.(fi)) value;
                src.targets.(fi) <- target)
        | R_delete k when !live <> [] ->
            let reg = nth_mod !live k in
            let referenced =
              List.exists
                (fun g ->
                  g.id <> reg.id
                  && List.exists
                       (fun ob -> Array.exists (( = ) reg.id) ob.targets)
                       g.objs)
                !live
            in
            let expect = not (safe && referenced) in
            let ok = Api.deleteregion api fr reg.slot in
            if ok <> expect then
              fail "deleteregion returned %b, model %b" ok expect;
            if ok then begin
              live := List.filter (fun g -> g.id <> reg.id) !live;
              frees := !frees + reg.count;
              live_bytes := !live_bytes - reg.bytes;
              decr live_regions;
              emu_add (-12 - (8 * reg.count))
            end
        | R_ralloc _ | R_rstr _ | R_array _ | R_delete _ -> ()
      in
      List.iter
        (fun op ->
          step op;
          compare_all ())
        ops);
  true

let qcheck_region_accounting_model =
  let modes =
    Workloads.Api.
      [
        Region { safe = true };
        Region { safe = false };
        Emulated Lea;
        Emulated Bsd;
      ]
  in
  QCheck.Test.make ~count:150 ~name:"region accounting equals a per-object model"
    QCheck.(
      make
        ~print:(fun ops -> String.concat " " (List.map show_rop ops))
        Gen.(list_size (int_range 1 80) gen_rop))
    (fun ops -> List.for_all (fun m -> run_region_model m ops) modes)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "workloads"
    [
      ( "bignum",
        [
          tc "roundtrip" `Quick test_bignum_roundtrip;
          tc "decimal" `Quick test_bignum_decimal;
          tc "arithmetic" `Quick test_bignum_arith_basics;
          tc "errors" `Quick test_bignum_errors;
          QCheck_alcotest.to_alcotest qcheck_bignum_matches_int;
          QCheck_alcotest.to_alcotest qcheck_bignum_isqrt;
          QCheck_alcotest.to_alcotest qcheck_bignum_decimal_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_bignum_gcd_properties;
        ] );
      ( "kernels",
        [
          tc "cfrac finds the factor" `Quick test_cfrac_finds_factor;
          tc "cfrac small-factor shortcut" `Quick test_cfrac_small_factor_shortcut;
          tc "grobner basis" `Quick test_grobner_basis_properties;
          tc "mudlle compiles" `Quick test_mudlle_compiles;
          tc "mudlle rejects Direct" `Quick test_mudlle_rejects_direct_mode;
          tc "lcc compiles" `Quick test_lcc_compiles;
          tc "tile boundaries" `Quick test_tile_finds_topic_boundaries;
          tc "moss plagiarised pair" `Quick test_moss_detects_plagiarised_pair;
          tc "game: random lifetimes defeat regions" `Quick
            test_game_random_lifetimes_defeat_regions;
          tc "game: correlated lifetimes fit regions" `Quick
            test_game_correlated_lifetimes_fit_regions;
          tc "game: every wave region deleted" `Quick
            test_game_all_regions_deleted;
          tc "game: emulated mode" `Quick test_game_emulated_mode_works;
        ] );
      ( "determinism",
        List.map
          (fun spec ->
            tc
              (spec.Workloads.Workload.name ^ " same answer in every mode")
              `Slow
              (test_deterministic_across_modes spec))
          Workloads.Workload.all );
      ( "hygiene",
        [
          tc "regions all deleted" `Quick test_region_workloads_delete_everything;
          tc "mallocs all freed" `Quick test_malloc_workloads_free_everything;
        ] );
      ( "api",
        [
          tc "unsupported ops rejected" `Quick test_api_unsupported_ops;
          tc "gc free is logical" `Quick test_api_gc_free_is_logical;
          tc "emulation overhead tracked" `Quick test_api_emulation_overhead_tracked;
          tc "load allocates nothing" `Quick
            (test_api_access_allocates_nothing api_load);
          tc "malloc/free allocate nothing" `Quick test_malloc_free_allocates_nothing;
          tc "gc malloc allocates nothing" `Quick test_gc_malloc_allocates_nothing;
          tc "ralloc allocates 4 words (safe)" `Quick
            (test_ralloc_allocates_little true);
          tc "ralloc allocates 4 words (unsafe)" `Quick
            (test_ralloc_allocates_little false);
          tc "deleteregion allocates per page" `Quick
            test_deleteregion_allocates_per_page;
          QCheck_alcotest.to_alcotest qcheck_region_accounting_model;
          tc "store allocates nothing" `Quick
            (test_api_access_allocates_nothing api_store);
          tc "work allocates nothing" `Quick
            (test_api_access_allocates_nothing api_work);
        ] );
    ]
