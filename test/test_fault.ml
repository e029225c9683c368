(* Tests for the fault-plan engine and the supervised harness: plan
   purity and parsing, injector semantics on a raw simulated memory,
   neutrality of the empty plan, graceful degradation of every
   workload under page-budget walls, 100% sanitizer detection of
   injected bit-flips, the daemon's crash-consistent journal
   (including torn lines), and the kill-at-random-cell / resume-from-
   the-cell-cache byte-identity property. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let quick = Workloads.Workload.Quick
let cfrac = Workloads.Workload.find "cfrac"

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let budget b = Fault.Plan.make [ Fault.Plan.Page_budget b ]

(* {1 Plans} *)

let test_plan_parse_roundtrip () =
  let spec = "budget=64,oom-at=3,ramp=0.1:0.01,flip=8:5" in
  match Fault.Plan.of_string ~seed:7 spec with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check_str "round-trips" spec (Fault.Plan.to_string p);
      check_int "seed travels" 7 (Fault.Plan.seed p);
      check_int "four clauses" 4 (List.length (Fault.Plan.clauses p))

let test_plan_parse_errors () =
  let bad s =
    match Fault.Plan.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (s ^ " should not parse")
  in
  bad "bogus";
  bad "budget=x";
  bad "budget=-1";
  bad "oom-at=0";
  bad "ramp=0.1";
  bad "flip=0:3";
  bad "flip=1:32";
  (match Fault.Plan.of_string "none" with
  | Ok p -> check_bool "none is empty" true (Fault.Plan.is_empty p)
  | Error e -> Alcotest.fail e);
  match Fault.Plan.of_string "" with
  | Ok p -> check_bool "empty spec is empty" true (Fault.Plan.is_empty p)
  | Error e -> Alcotest.fail e

let test_plan_budget_semantics () =
  let p = budget 10 in
  let deny ~event ~pages ~pages_before =
    (Fault.Plan.decision p ~event ~pages ~pages_before).Fault.Plan.deny
  in
  check_bool "within budget" false (deny ~event:1 ~pages:4 ~pages_before:0);
  check_bool "exactly budget" false (deny ~event:2 ~pages:10 ~pages_before:0);
  check_bool "over in one go" true (deny ~event:1 ~pages:11 ~pages_before:0);
  check_bool "over cumulatively" true (deny ~event:5 ~pages:4 ~pages_before:7)

let test_plan_oom_at () =
  let p = Fault.Plan.make [ Fault.Plan.Oom_at 3 ] in
  let deny event =
    (Fault.Plan.decision p ~event ~pages:1 ~pages_before:0).Fault.Plan.deny
  in
  Alcotest.(check (list bool))
    "only the third map is denied"
    [ false; false; true; false; false ]
    (List.map deny [ 1; 2; 3; 4; 5 ])

let test_plan_ramp_extremes () =
  let always =
    Fault.Plan.make [ Fault.Plan.Denial_ramp { start = 1.0; slope = 0. } ]
  and never =
    Fault.Plan.make [ Fault.Plan.Denial_ramp { start = 0.; slope = 0. } ]
  in
  for event = 1 to 50 do
    check_bool "p=1 denies" true
      (Fault.Plan.decision always ~event ~pages:1 ~pages_before:0).Fault.Plan.deny;
    check_bool "p=0 never denies" false
      (Fault.Plan.decision never ~event ~pages:1 ~pages_before:0).Fault.Plan.deny
  done

let clause_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Fault.Plan.Page_budget n) (int_bound 100);
        map (fun n -> Fault.Plan.Oom_at (1 + n)) (int_bound 50);
        map
          (fun (s, sl) ->
            Fault.Plan.Denial_ramp
              {
                start = float_of_int s /. 100.;
                slope = float_of_int sl /. 1000.;
              })
          (pair (int_bound 100) (int_bound 100));
        map
          (fun (e, b) -> Fault.Plan.Bit_flip { every = 1 + e; bit = b land 31 })
          (pair (int_bound 20) (int_bound 31));
      ])

let plan_arb =
  QCheck.make
    ~print:(fun (seed, clauses) ->
      Fault.Plan.to_string (Fault.Plan.make ~seed clauses))
    QCheck.Gen.(pair (int_bound 1000) (list_size (int_range 0 5) clause_gen))

(* The load-bearing plan property: [decision] is a pure function of
   (plan, event, pages, pages_before) — same answers from a fresh plan
   value, and in any evaluation order.  This is what makes any
   reported fault replayable from its --plan/--seed pair alone. *)
let test_plan_purity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"plan decisions are pure" plan_arb
       (fun (seed, clauses) ->
         let p1 = Fault.Plan.make ~seed clauses
         and p2 = Fault.Plan.make ~seed clauses in
         let events = List.init 20 (fun i -> i + 1) in
         let run p es =
           List.map
             (fun event ->
               Fault.Plan.decision p ~event ~pages:(1 + (event mod 3))
                 ~pages_before:(2 * event))
             es
         in
         run p1 events = run p2 events
         && run p1 (List.rev events) = List.rev (run p2 events)))

let test_plan_string_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"to_string/of_string round-trip"
       plan_arb (fun (seed, clauses) ->
         let p = Fault.Plan.make ~seed clauses in
         match Fault.Plan.of_string ~seed (Fault.Plan.to_string p) with
         | Error _ -> false
         | Ok p' -> Fault.Plan.to_string p' = Fault.Plan.to_string p))

(* {1 Injector on a raw memory} *)

let test_inject_budget_wall () =
  let mem = Sim.Memory.create () in
  Fault.Inject.with_plan ~plan:(budget 3) mem (fun inj ->
      ignore (Sim.Memory.map_pages mem 2);
      ignore (Sim.Memory.map_pages mem 1);
      (match Sim.Memory.map_pages mem 1 with
      | _ -> Alcotest.fail "fourth page should be denied"
      | exception Sim.Memory.Fault _ -> ());
      check_int "three events" 3 (Fault.Inject.events inj);
      check_int "one denial" 1 (Fault.Inject.denials inj);
      check_int "three pages granted" 3 (Fault.Inject.pages_granted inj);
      (* one-shot plans recover: nothing else denies *)
      check_int "no flips" 0 (Fault.Inject.flips inj));
  (* with_plan uninstalled the hooks: the same request now succeeds *)
  ignore (Sim.Memory.map_pages mem 1)

let test_inject_flip_applied () =
  let mem = Sim.Memory.create () in
  let base = Sim.Memory.map_pages mem 1 in
  Sim.Memory.poke mem base 0xABCD;
  let plan = Fault.Plan.make [ Fault.Plan.Bit_flip { every = 1; bit = 4 } ] in
  Fault.Inject.with_plan ~pick:(fun ~u:_ ~bit -> Some (base, bit)) ~plan mem
    (fun inj ->
      ignore (Sim.Memory.map_pages mem 1);
      check_int "one flip applied" 1 (Fault.Inject.flips inj);
      Alcotest.(check (list (pair int int)))
        "applied records the target" [ (base, 4) ]
        (Fault.Inject.applied inj);
      check_int "bit 4 flipped" (0xABCD lxor 0x10) (Sim.Memory.peek mem base))

let test_inject_empty_plan_neutral () =
  let run ?plan () =
    let mem = Sim.Memory.create () in
    let exercise () =
      let a = Sim.Memory.map_pages mem 2 in
      for i = 0 to 63 do
        Sim.Memory.poke mem (a + (4 * i)) (i * i)
      done;
      ignore (Sim.Memory.map_pages mem 1);
      let s = ref 0 in
      for i = 0 to 63 do
        s := !s + Sim.Memory.peek mem (a + (4 * i))
      done;
      !s
    in
    let v =
      match plan with
      | None -> exercise ()
      | Some plan -> Fault.Inject.with_plan ~plan mem (fun _ -> exercise ())
    in
    (v, Sim.Memory.limit mem)
  in
  Alcotest.(check (pair int int))
    "empty plan is observationally neutral" (run ())
    (run ~plan:(Fault.Plan.none ()) ())

(* {1 Fuzz-level: every allocator under denial plans} *)

(* Every row must deny at least once on every target, or it exercises
   no fault path there.  The ramp's slope is what makes that hold on
   sun and lea, which map only a handful of pages in 300 allocations:
   a 0.02 slope denies none of their 6 requests, 0.05 two of 8. *)

let test_fault_plans_all_allocators () =
  List.iter
    (fun target ->
      List.iter
        (fun spec ->
          let plan =
            match Fault.Plan.of_string spec with Ok p -> p | Error e -> Alcotest.fail e
          in
          match Check.Fuzz.fault_plan_injection target ~plan ~ops:300 with
          | Ok (0, m) ->
              Alcotest.failf "%s under %s: the plan denied nothing (%s)"
                target.Check.Fuzz.label spec m
          | Ok _ -> ()
          | Error e ->
              Alcotest.fail
                (Fmt.str "%s under %s: %s" target.Check.Fuzz.label spec e))
        [ "budget=6"; "oom-at=2,oom-at=5"; "ramp=0:0.05"; "budget=8,ramp=0:0.01" ])
    (Check.Fuzz.targets ())

let test_bitflip_detection_sun () =
  match
    Check.Fuzz.bitflip_detection (Check.Fuzz.find_target "sun") ~seed:11 ~ops:60
  with
  | Ok s -> check_bool "reports 100%" true (contains s "100%")
  | Error e -> Alcotest.fail e

let test_bitflip_detection_lea () =
  match
    Check.Fuzz.bitflip_detection (Check.Fuzz.find_target "lea") ~seed:23 ~ops:60
  with
  | Ok s -> check_bool "reports 100%" true (contains s "100%")
  | Error e -> Alcotest.fail e

(* {1 Workload-level graceful degradation} *)

(* Every workload, under every allocator column of its row, must
   degrade gracefully when the simulated OS enforces a tight page
   budget: the denial surfaces as the documented fault (or the
   workload completes within budget), and every heap structure still
   passes its consistency walk. *)
let test_workloads_degrade_gracefully () =
  List.iter
    (fun spec ->
      List.iter
        (fun mode ->
          let o = Harness.Faultrun.run ~plan:(budget 8) spec mode quick in
          if not (Harness.Faultrun.graceful o) then
            Alcotest.fail (Fmt.str "%a" Harness.Faultrun.pp_outcome o))
        (Workloads.Workload.modes_for spec))
    (Workloads.Workload.all
    @ [ Workloads.Workload.moss_slow ]
    @ Workloads.Workload.extras)

(* Workload-level neutrality: installing the empty plan changes no
   simulated count — the injector costs nothing until it acts. *)
let test_workload_empty_plan_neutral () =
  let results = Alcotest.testable Workloads.Results.pp ( = ) in
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      List.iter
        (fun mode ->
          let run ?plan () =
            Workloads.Workload.(collect (run ?plan spec mode quick))
          in
          Alcotest.check results
            (Fmt.str "empty plan neutral: %s under %s" spec.name
               (Workloads.Api.mode_name mode))
            (run ())
            (run ~plan:(Fault.Plan.none ()) ()))
        (Workloads.Workload.modes_for spec))
    [ cfrac; Workloads.Workload.find "mudlle" ]

(* {1 Keyed (daemon) journal} *)

let sample_keyed () =
  {
    Harness.Journal.k_build = "4db1d8cfbc6ba71e3dfc3d2f8c8a9c21";
    k_workload = "cfrac";
    k_mode = "sun";
    k_size = "quick";
    k_seed = 3;
    k_plan = "budget=64,ramp=0:0.01";
    k_result =
      Workloads.Workload.run_collect cfrac (Workloads.Api.Direct Sun) quick;
  }

let test_keyed_line_roundtrip () =
  let k = sample_keyed () in
  match Harness.Journal.keyed_of_line (Harness.Journal.line_of_keyed k) with
  | None -> Alcotest.fail "keyed line should parse"
  | Some k' ->
      check_str "build id" k.Harness.Journal.k_build
        k'.Harness.Journal.k_build;
      check_str "workload" k.Harness.Journal.k_workload
        k'.Harness.Journal.k_workload;
      check_str "mode" k.Harness.Journal.k_mode k'.Harness.Journal.k_mode;
      check_str "size" k.Harness.Journal.k_size k'.Harness.Journal.k_size;
      check_int "seed" k.Harness.Journal.k_seed k'.Harness.Journal.k_seed;
      check_str "plan survives hex transport" k.Harness.Journal.k_plan
        k'.Harness.Journal.k_plan;
      check_str "result"
        (Fmt.str "%a" Workloads.Results.pp k.Harness.Journal.k_result)
        (Fmt.str "%a" Workloads.Results.pp k'.Harness.Journal.k_result)

(* The buildless "cell3" generation is unknown-version damage to the
   loader, not a parse: a pre-build-id journal degrades to "re-run
   those cells", it can never smuggle stale measurements past the
   build check. *)
let test_keyed_old_version_rejected () =
  let line = Harness.Journal.line_of_keyed (sample_keyed ()) in
  let downgraded = "cell3" ^ String.sub line 5 (String.length line - 5) in
  match Harness.Journal.keyed_of_line downgraded with
  | None -> ()
  | Some _ -> Alcotest.fail "cell3-tagged line accepted by the cell4 loader"

let test_keyed_torn_rejected () =
  let line = Harness.Journal.line_of_keyed (sample_keyed ()) in
  let n = String.length line in
  List.iter
    (fun k ->
      match Harness.Journal.keyed_of_line (String.sub line 0 k) with
      | None -> ()
      | Some _ -> Alcotest.fail (Fmt.str "torn prefix of %d bytes accepted" k))
    [ 4; 12; n / 2; n - 8; n - 1 ];
  let damaged = Bytes.of_string line in
  Bytes.set damaged (n - 1)
    (if Bytes.get damaged (n - 1) = '0' then '1' else '0');
  match Harness.Journal.keyed_of_line (Bytes.to_string damaged) with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupted keyed payload accepted"

(* {1 Matrix driver: resume from the cache, failures} *)

let render m =
  String.concat "\n"
    (List.filter_map
       (fun (s : Harness.Docs.section) ->
         match s.render with `Matrix f -> Some (f m) | `Static _ -> None)
       Harness.Docs.sections)

let fresh_cache_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Fmt.str "fault_%s_%d_%d" tag (Unix.getpid ()) !n)

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let cell_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")

let temp_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> contains f ".tmp.")

(* One uninterrupted run into a fresh cell cache: the reference report
   every resumed run must reproduce byte for byte, plus its cache. *)
let baseline =
  lazy
    (let dir = fresh_cache_dir "baseline" in
     at_exit (fun () -> rm_rf dir);
     let disk = Results.Cache.create ~dir () in
     let m = Harness.Matrix.create ~disk quick in
     let timings = Harness.Matrix.run_all ~domains:4 m in
     (disk, render m, timings, Harness.Matrix.cache_stats m))

exception Simulated_crash

let test_supervised_uninterrupted () =
  let disk, _, timings, (hits, misses) = Lazy.force baseline in
  check_int "all 37 cells run" 37 (List.length timings);
  check_int "cold cache: no hits" 0 hits;
  check_int "cold cache: 37 misses" 37 misses;
  check_int "every cell stored" 37
    (List.length (cell_files (Results.Cache.dir disk)))

(* Kill the run after [k] completed cells (the crash channel is an
   exception from the progress callback, which fires strictly after
   the cell's cache entry is durable — exactly the order a real kill
   sees), then resume with a fresh matrix on the same cache: the
   stored cells are hits, only the remaining cells run, and the report
   is byte-identical. *)
let resume_trial k =
  let _, expected, _, _ = Lazy.force baseline in
  let dir = fresh_cache_dir "resume" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let disk = Results.Cache.create ~dir () in
  let count = Atomic.make 0 in
  let on_cell _ ~cycles:_ =
    if Atomic.fetch_and_add count 1 + 1 >= k then raise Simulated_crash
  in
  (match
     Harness.Matrix.run_all ~domains:4 ~on_cell
       (Harness.Matrix.create ~disk quick)
   with
  | _ -> Alcotest.fail "crash did not propagate"
  | exception Simulated_crash -> ());
  let stored = List.length (cell_files dir) in
  check_bool "the crashed cell was already durable" true (stored >= k);
  check_bool "the crash stopped the run" true (stored < 37);
  check_int "no temp file left behind" 0 (List.length (temp_files dir));
  let m = Harness.Matrix.create ~disk quick in
  ignore (Harness.Matrix.run_all ~domains:4 m);
  let hits, misses = Harness.Matrix.cache_stats m in
  check_int "resume served the stored cells" stored hits;
  check_int "resume ran exactly the remaining cells" (37 - stored) misses;
  check_str "resumed report is byte-identical" expected (render m)

let test_resume_fixed () = resume_trial 5

let test_resume_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2 ~name:"kill at a random cell, then resume"
       (* kill point stays clear of the tail: with 4 domains, up to 3
          in-flight cells still complete (and are stored) after the
          crash, and a k at the very end would leave nothing to
          resume *)
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 30))
       (fun k ->
         resume_trial k;
         true))

(* The serve daemon's attempt loop: a body that outlives an impossible
   watchdog is a transient failure, retried until the attempts run out,
   and the error it returns names the watchdog. *)
let test_watchdog_retries () =
  let sup = { Harness.Matrix.timeout_s = Some 1e-4; retries = 2; backoff_s = 0.01 } in
  match Harness.Matrix.run_attempts sup (fun () -> Unix.sleepf 0.05) with
  | Ok () -> Alcotest.fail "the watchdog did not fire"
  | Error (attempts, e) ->
      check_int "watchdog retried: 1 + 2 retries" 3 attempts;
      check_bool "error names the watchdog" true
        (contains (Printexc.to_string e) "watchdog")

(* Triage of a failure: the bundle holds [error.txt], [heap.txt] and
   the same artefact family a traced run writes, from a diagnostic
   re-run under the failed cell's fault plan. *)
let test_failure_bundle () =
  let moss = Workloads.Workload.find "moss" in
  let mode = Workloads.Api.Region { safe = true } in
  let qdir = fresh_cache_dir "bundle" and tdir = fresh_cache_dir "traced" in
  Fun.protect ~finally:(fun () -> rm_rf qdir; rm_rf tdir) @@ fun () ->
  let bundle =
    match
      Harness.Triage.write_bundle ~dir:qdir ~workload:"moss" ~mode:"region"
        ~last_error:"denied" ~plan:(budget 64) ~retrace:(moss, mode, quick)
    with
    | Some b -> b
    | None -> Alcotest.fail "no bundle written"
  in
  let (_ : Workloads.Results.t * Obs.Tracer.t * Harness.Tracefiles.files) =
    Harness.Tracefiles.run_traced ~out:tdir cfrac mode quick
  in
  let artefacts dir stem =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           if String.starts_with ~prefix:(stem ^ ".") f then
             Some (String.sub f (String.length stem)
                     (String.length f - String.length stem))
           else None)
    |> List.sort compare
  in
  let traced = artefacts tdir (Harness.Tracefiles.stem cfrac mode) in
  check_int "a traced run writes five artefacts" 5 (List.length traced);
  Alcotest.(check (list string))
    "bundle holds the traced-run artefacts" traced
    (artefacts bundle (Harness.Tracefiles.stem moss mode));
  Alcotest.(check (list string))
    "and nothing else but error.txt and heap.txt"
    [ "error.txt"; "heap.txt" ]
    (Sys.readdir bundle |> Array.to_list
    |> List.filter (fun f -> not (String.starts_with ~prefix:"moss-region." f))
    |> List.sort compare);
  let read f = In_channel.with_open_bin (Filename.concat bundle f) In_channel.input_all in
  check_bool "the plan reproduced the failure" true
    (contains (read "error.txt") "failed on re-run");
  check_bool "heap verdict written" true (String.length (read "heap.txt") > 0);
  check_bool "events captured up to the failure" true
    ((Unix.stat (Filename.concat bundle "moss-region.events.bin")).Unix.st_size
    > String.length Obs.Spill.magic)

(* The driver runs each cell once, but it never drops a failure: under
   a page budget that starves the larger workloads, it finishes every
   other cell, memoises it, and raises one exception naming exactly the
   cells that failed. *)
let test_unsupervised_failure_raised () =
  let m = Harness.Matrix.create ~plan:(budget 64, "budget=64") quick in
  let failed =
    match Harness.Matrix.run_all ~domains:2 m with
    | _ -> Alcotest.fail "a starved cell did not fail"
    | exception Harness.Matrix.Cells_failed fs ->
        List.map
          (fun (f : Harness.Matrix.cell_failure) -> (f.workload, f.mode))
          fs
  in
  check_bool "moss/region failed" true (List.mem ("moss", "region") failed);
  let memoised =
    Results.Store.to_list (Harness.Matrix.store m)
    |> List.map (fun c -> (Results.Cell.workload c, Results.Cell.mode c))
  in
  check_bool "cfrac/sun succeeded and is memoised" true
    (List.mem ("cfrac", "sun") memoised);
  check_int "every cell either failed or is memoised" 37
    (List.length failed + List.length memoised);
  List.iter
    (fun cell ->
      check_bool "a failed cell is not memoised" false (List.mem cell memoised))
    failed

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "parse round-trip" `Quick test_plan_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
          Alcotest.test_case "page budget semantics" `Quick
            test_plan_budget_semantics;
          Alcotest.test_case "oom-at is one-shot" `Quick test_plan_oom_at;
          Alcotest.test_case "ramp extremes" `Quick test_plan_ramp_extremes;
          test_plan_purity;
          test_plan_string_roundtrip;
        ] );
      ( "inject",
        [
          Alcotest.test_case "budget wall on raw memory" `Quick
            test_inject_budget_wall;
          Alcotest.test_case "bit-flip lands where aimed" `Quick
            test_inject_flip_applied;
          Alcotest.test_case "empty plan is neutral (raw)" `Quick
            test_inject_empty_plan_neutral;
          Alcotest.test_case "empty plan is neutral (workload)" `Quick
            test_workload_empty_plan_neutral;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "denial plans on all five allocators" `Quick
            test_fault_plans_all_allocators;
          Alcotest.test_case "sanitizer catches 100% of flips (sun)" `Quick
            test_bitflip_detection_sun;
          Alcotest.test_case "sanitizer catches 100% of flips (lea)" `Quick
            test_bitflip_detection_lea;
          Alcotest.test_case "every workload degrades gracefully" `Slow
            test_workloads_degrade_gracefully;
        ] );
      ( "journal",
        [
          Alcotest.test_case "keyed line round-trip" `Quick
            test_keyed_line_roundtrip;
          Alcotest.test_case "keyed buildless generation rejected" `Quick
            test_keyed_old_version_rejected;
          Alcotest.test_case "keyed torn lines rejected" `Quick
            test_keyed_torn_rejected;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "uninterrupted run is clean" `Slow
            test_supervised_uninterrupted;
          Alcotest.test_case "kill at cell 5, resume" `Slow test_resume_fixed;
          test_resume_random;
          Alcotest.test_case "run_attempts watchdog + retries" `Quick
            test_watchdog_retries;
          Alcotest.test_case "failure bundle holds every artefact" `Quick
            test_failure_bundle;
          Alcotest.test_case "unsupervised failure is raised" `Slow
            test_unsupervised_failure_raised;
        ] );
    ]
