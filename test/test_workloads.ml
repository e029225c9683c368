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

(* A simulated load allocates nothing on the host: 10 000 loads and 10
   loads move the minor heap by the same amount (the measurement's own
   boxed floats).  Fails if [Api.load] goes back to building a closure
   per call. *)
let test_api_load_allocates_nothing () =
  let api =
    Workloads.Api.create ~with_cache:true (Workloads.Api.Direct Workloads.Api.Sun)
  in
  let p = Sim.Memory.map_pages (Workloads.Api.memory api) 1 in
  let minor_words n =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Workloads.Api.load api p)
    done;
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.)) "same minor words" (minor_words 10)
    (minor_words 10_000)

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
          tc "load allocates nothing" `Quick test_api_load_allocates_nothing;
          tc "malloc/free allocate nothing" `Quick test_malloc_free_allocates_nothing;
          tc "gc malloc allocates nothing" `Quick test_gc_malloc_allocates_nothing;
        ] );
    ]
