(* Tests for the multi-mutator server engine and the region bump fast
   path: N=1 scheduling is byte-identical to the legacy sequential
   program on every allocator column, schedules are deterministic in
   (seed, N), and the bump path changes charged instructions but never
   addresses or answers. *)

module Api = Workloads.Api
module Server = Workloads.Server
module Region = Regions.Region

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_with mode f =
  let api = Api.create ~with_cache:false mode in
  let o = f api in
  (Workloads.Results.collect api ~workload:"server" ~summary:"", o)

let small_params seed =
  { Server.mutators = 1; requests = 40; quantum = 8; seed; bump = false }

(* N=1 under the scheduler (bump off) must be byte-identical to the
   plain sequential loop in every mode: same cycles, same per-context
   instruction counts, same stalls, same footprint, same answer. *)
let qcheck_n1_matches_sequential =
  QCheck.Test.make ~count:6 ~name:"server: N=1 schedule == sequential (all modes)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      List.for_all
        (fun mode ->
          let p = small_params seed in
          let r1, o1 = run_with mode (fun api -> Server.run api p) in
          let r2, o2 = run_with mode (fun api -> Server.run_sequential api p) in
          r1 = r2
          && o1.Server.checksum = o2.Server.checksum
          && o1.Server.served = o2.Server.served
          && o1.Server.allocs = o2.Server.allocs)
        Api.all_modes)

(* Same seed, same N: the interleaving (hash), every count and the
   full measurement record are identical run to run. *)
let qcheck_deterministic =
  QCheck.Test.make ~count:4 ~name:"server: same seed+N => identical schedule"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p =
        { Server.mutators = 4; requests = 120; quantum = 8; seed; bump = true }
      in
      let mode = Api.Region { safe = true } in
      let r1, o1 = run_with mode (fun api -> Server.run api p) in
      let r2, o2 = run_with mode (fun api -> Server.run api p) in
      r1 = r2 && o1 = o2
      && o1.Server.interleave_hash = o2.Server.interleave_hash)

(* Bump on vs off: identical addresses (checksum), answers and
   footprint; strictly fewer charged alloc instructions; live fast-path
   counters. *)
let test_bump_equivalence () =
  List.iter
    (fun safe ->
      let mode = Api.Region { safe } in
      let p =
        { Server.mutators = 4; requests = 200; quantum = 8; seed = 7; bump = false }
      in
      let r_off, o_off = run_with mode (fun api -> Server.run api p) in
      let r_on, o_on =
        run_with mode (fun api -> Server.run api { p with Server.bump = true })
      in
      check "served" o_off.Server.served o_on.Server.served;
      check "checksum" o_off.Server.checksum o_on.Server.checksum;
      check "os bytes" r_off.Workloads.Results.os_bytes
        r_on.Workloads.Results.os_bytes;
      check "base instrs" r_off.Workloads.Results.base_instrs
        r_on.Workloads.Results.base_instrs;
      check_bool "fewer alloc instrs" true
        (r_on.Workloads.Results.alloc_instrs
        < r_off.Workloads.Results.alloc_instrs);
      check_bool "fast path hit" true (o_on.Server.bump_stats.Region.bs_hits > 0);
      check "no hits with bump off" 0 o_off.Server.bump_stats.Region.bs_hits)
    [ true; false ]

(* Mid-request handoffs put several alloc regions on the shared page
   map at once: refills must observe contention. *)
let test_contended_refills () =
  let p =
    { Server.mutators = 4; requests = 400; quantum = 4; seed = 11; bump = true }
  in
  let _, o = run_with (Api.Region { safe = true }) (fun api -> Server.run api p) in
  let bs = o.Server.bump_stats in
  check_bool "refills happened" true (bs.Region.bs_refills > 0);
  check_bool "contended refills observed" true
    (bs.Region.bs_contended_refills > 0);
  check_bool "hits dominate refills" true
    (bs.Region.bs_hits > bs.Region.bs_refills);
  check_bool "handoffs counted" true (o.Server.handoffs > 0)

(* Fairness: equal weights and quotas must spread steps evenly. *)
let test_fairness () =
  let p =
    { Server.mutators = 4; requests = 400; quantum = 8; seed = 3; bump = true }
  in
  let _, o = run_with (Api.Region { safe = true }) (fun api -> Server.run api p) in
  let steps = Array.map (fun m -> m.Server.ms_steps) o.Server.per_mutator in
  let mn = Array.fold_left min steps.(0) steps in
  let mx = Array.fold_left max steps.(0) steps in
  check_bool "within 15% of each other" true
    (float_of_int (mx - mn) /. float_of_int mx < 0.15);
  Array.iter
    (fun m -> check "served its quota" 100 m.Server.ms_served)
    o.Server.per_mutator

(* Long runs tear every request region down: a node's integer payload
   must never be scanned as a pointer at cleanup.  2 mutators x 20000
   requests once died with "request region still referenced at
   teardown", bump path on or off. *)
let test_long_run_serves_all () =
  List.iter
    (fun bump ->
      let p =
        {
          (Workloads.Workload.server_params 2 Workloads.Workload.Quick) with
          Server.requests = 20_000;
          bump;
        }
      in
      let _, o = run_with (Api.Region { safe = true }) (fun api -> Server.run api p) in
      check (Printf.sprintf "served (bump %b)" bump) 20_000 o.Server.served)
    [ true; false ]

(* Region-level unit test: invariants hold with alloc regions open,
   deletion closes them, and a region handed from one mutator to
   another closes the first mutator's cache before reopening. *)
let test_region_bump_unit () =
  let api = Api.create ~with_cache:false (Api.Region { safe = true }) in
  let lib = Option.get (Api.region_lib api) in
  Api.enable_bump api;
  let layout = Regions.Cleanup.layout_words 4 in
  Api.with_frame api ~nslots:2 ~ptr_slots:[ 0; 1 ] (fun fr ->
      let r0 = Api.newregion api in
      Api.set_local_ptr api fr 0 r0;
      let addrs = Array.init 300 (fun _ -> Api.ralloc api r0 layout) in
      (* The alloc region is open: peek-based checks must still see a
         consistent structure. *)
      Region.check_invariants lib;
      let seen = ref 0 in
      Region.iter_objects_peek lib r0 (fun ~obj:_ ~cleanup:_ -> incr seen);
      check "all objects visible while open" 300 !seen;
      (* Hand the region to mutator 1: its allocations must continue
         exactly where mutator 0 stopped. *)
      Api.set_mutator api 1;
      let a = Api.ralloc api r0 layout in
      check_bool "continues after handoff" true (a > addrs.(299));
      Region.check_invariants lib;
      (* Delete with an open alloc region: close is automatic. *)
      let ok = Api.deleteregion api fr 0 in
      check_bool "delete with open alloc region" true ok;
      Region.check_invariants lib;
      let bs = Region.bump_stats lib in
      check_bool "hits" true (bs.Region.bs_hits > 0);
      check_bool "opens" true (bs.Region.bs_opens >= 2);
      check "all closed" bs.Region.bs_opens bs.Region.bs_closes)

(* Addresses with bump on equal addresses with bump off, allocation by
   allocation (stronger than the checksum). *)
let qcheck_bump_address_identity =
  QCheck.Test.make ~count:20 ~name:"bump path: identical addresses"
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(1 -- 60) (int_bound 200)))
    (fun (seed, sizes) ->
      let alloc_all bump =
        let api = Api.create ~with_cache:false (Api.Region { safe = true }) in
        if bump then Api.enable_bump api;
        Api.with_frame api ~nslots:1 ~ptr_slots:[ 0 ] (fun fr ->
            let r = Api.newregion api in
            Api.set_local_ptr api fr 0 r;
            let rng = Sim.Rng.create seed in
            List.map
              (fun s ->
                if Sim.Rng.bool rng then Api.rstralloc api r (1 + s)
                else
                  Api.ralloc api r
                    (Regions.Cleanup.layout_words (1 + (s mod 32))))
              sizes)
      in
      alloc_all true = alloc_all false)

(* Trace layer: Set_mutator records round-trip, and a recorded
   server-2 run replays to the same summary. *)
let test_trace_set_mutator_roundtrip () =
  let path = Filename.temp_file "server" ".trace" in
  let hdr =
    {
      Trace.Format.workload = "x";
      variant = "region";
      mode = "region-safe";
      size = "quick";
      seed = 0;
      build_id = "test";
    }
  in
  let w = Trace.Format.create_writer ~path hdr in
  Trace.Format.emit w (Trace.Format.Set_mutator { mid = 3; bump = true });
  Trace.Format.emit w (Trace.Format.Set_mutator { mid = 0; bump = false });
  Trace.Format.commit w ~summary:"s";
  (match Trace.Format.open_file path with
  | Error e -> Alcotest.fail e
  | Ok rd ->
      (match Trace.Format.next rd with
      | Trace.Format.Set_mutator { mid; bump } ->
          check "mid" 3 mid;
          check_bool "bump" true bump
      | _ -> Alcotest.fail "expected Set_mutator");
      (match Trace.Format.next rd with
      | Trace.Format.Set_mutator { mid; bump } ->
          check "mid" 0 mid;
          check_bool "bump" false bump
      | _ -> Alcotest.fail "expected Set_mutator");
      Trace.Format.close rd);
  Sys.remove path

let test_record_replay_server () =
  let spec = Workloads.Workload.find "server-2" in
  let path = Filename.temp_file "server2" ".trace" in
  let live =
    Trace.Record.record ~out:path ~variant:"region" spec Workloads.Workload.Quick
  in
  (match Trace.Format.open_file path with
  | Error e -> Alcotest.fail e
  | Ok rd ->
      let replayed = Trace.Replay.run rd (Api.Region { safe = true }) in
      Alcotest.(check string)
        "same summary" live.Workloads.Results.summary
        replayed.Workloads.Results.summary;
      check "same alloc instrs" live.Workloads.Results.alloc_instrs
        replayed.Workloads.Results.alloc_instrs;
      check "same refcount instrs" live.Workloads.Results.refcount_instrs
        replayed.Workloads.Results.refcount_instrs;
      check "same os bytes" live.Workloads.Results.os_bytes
        replayed.Workloads.Results.os_bytes;
      Trace.Format.close rd);
  Sys.remove path

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "server"
    [
      ( "engine",
        [
          QCheck_alcotest.to_alcotest qcheck_n1_matches_sequential;
          QCheck_alcotest.to_alcotest qcheck_deterministic;
          tc "bump on/off equivalence" `Quick test_bump_equivalence;
          tc "contended refills" `Quick test_contended_refills;
          tc "fairness" `Quick test_fairness;
          tc "2 mutators x 20000 requests serve all" `Quick test_long_run_serves_all;
        ] );
      ( "bump path",
        [
          tc "region unit" `Quick test_region_bump_unit;
          QCheck_alcotest.to_alcotest qcheck_bump_address_identity;
        ] );
      ( "trace",
        [
          tc "set_mutator roundtrip" `Quick test_trace_set_mutator_roundtrip;
          tc "record/replay server-2" `Quick test_record_replay_server;
        ] );
    ]
