(* Integration tests for the experiment harness: the full
   workload x allocator matrix runs, the renderers produce the paper's
   rows, and the headline claims of the paper hold in this
   reproduction. *)

let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

(* One shared matrix for the whole suite (results are memoised). *)
let matrix = lazy (Harness.Matrix.create Workloads.Workload.Quick)

let get spec mode = Harness.Matrix.get (Lazy.force matrix) spec mode
let workloads = Harness.Matrix.workloads

let test_matrix_caches () =
  let m = Lazy.force matrix in
  let spec = List.hd workloads in
  let r1 = Harness.Matrix.get m spec Harness.Matrix.region_safe in
  let r2 = Harness.Matrix.get m spec Harness.Matrix.region_safe in
  check_bool "same physical result" true (r1 == r2)

(* The report sections that read the matrix, as (id, renderer). *)
let matrix_sections =
  List.filter_map
    (fun (s : Harness.Docs.section) ->
      match s.render with `Matrix f -> Some (s.id, f) | `Static _ -> None)
    Harness.Docs.sections

let test_renders_contain_benchmarks () =
  let m = Lazy.force matrix in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (id, render) ->
      let s = render m in
      check_bool (id ^ " mentions every benchmark") true
        (List.for_all
           (fun spec -> contains s spec.Workloads.Workload.name)
           workloads))
    matrix_sections

let test_render_helpers () =
  Alcotest.(check string) "kb" "1.5" (Harness.Render.kb 1536);
  Alcotest.(check string) "mega small" "123" (Harness.Render.mega 123);
  Alcotest.(check string) "mega k" "123k" (Harness.Render.mega 123_000);
  Alcotest.(check string) "mega M" "123.0M" (Harness.Render.mega 123_000_000);
  Alcotest.(check string) "pct" "42.0%" (Harness.Render.pct 0.42)

let test_claims_all_pass () =
  let s = Harness.Claims.render (Lazy.force matrix) in
  let contains needle =
    let n = String.length s and m = String.length needle in
    let rec go i = i + m <= n && (String.sub s i m = needle || go (i + 1)) in
    go 0
  in
  check_bool "no deviations in the claims report" false (contains "DEVIATION");
  check_bool "six claims" true (contains "PASS")

(* The parallel matrix must render byte-identical tables and figures
   to the sequential run: every cell owns its simulated machine and
   deterministic RNG, so fanning cells across domains may not change a
   single simulated count. *)
let test_parallel_matrix_byte_identical () =
  let seq = Lazy.force matrix in
  (* Fill the remaining cells of the shared matrix through run_all's
     sequential path, and a fresh matrix through the 4-domain pool;
     the rendered reports must not differ in a single byte. *)
  ignore (Harness.Matrix.run_all ~domains:1 seq);
  let par = Harness.Matrix.create Workloads.Workload.Quick in
  let timings = Harness.Matrix.run_all ~domains:4 par in
  check "all 37 report cells ran" 37 (List.length timings);
  List.iter
    (fun (id, render) ->
      Alcotest.(check string) (id ^ " byte-identical") (render seq) (render par))
    matrix_sections

let test_parallel_for_covers_all_indices () =
  let n = 100 in
  let hits = Array.make n 0 in
  Harness.Matrix.parallel_for ~domains:4 n (fun i -> hits.(i) <- hits.(i) + 1);
  check_bool "every index ran exactly once" true
    (Array.for_all (fun c -> c = 1) hits)

(* An exception in one cell must neither hang the worker pool nor get
   swallowed: every domain is joined and the original exception
   resurfaces from parallel_for. *)
let test_parallel_for_exception_propagates () =
  let ran7 = ref false in
  (match
     Harness.Matrix.parallel_for ~domains:4 64 (fun i ->
         if i = 7 then begin
           ran7 := true;
           failwith "cell 7 exploded"
         end)
   with
  | () -> Alcotest.fail "expected the cell failure to propagate"
  | exception Failure msg ->
      Alcotest.(check string) "original exception" "cell 7 exploded" msg;
      check_bool "failing cell ran" true !ran7);
  (* Same on the sequential path. *)
  match Harness.Matrix.parallel_for ~domains:1 4 (fun i -> if i = 2 then failwith "boom") with
  | () -> Alcotest.fail "expected failure on sequential path"
  | exception Failure msg -> Alcotest.(check string) "sequential exception" "boom" msg

let test_limitation_renders () =
  let s = Harness.Limitation.render () in
  check_bool "mentions the problem case" true
    (let needle = "problem case" in
     let n = String.length s and m = String.length needle in
     let rec go i = i + m <= n && (String.sub s i m = needle || go (i + 1)) in
     go 0)

let test_table1_renders () =
  let s = Harness.Table1.render () in
  check_bool "has cfrac row with the paper's 4203" true
    (let rec go i =
       i + 4 <= String.length s && (String.sub s i 4 = "4203" || go (i + 1))
     in
     go 0)

(* ------------------------------------------------------------------ *)
(* Headline claims (paper section 5.5 / 5.6 / 5.4) *)

let cycles spec mode = (get spec mode).Workloads.Results.cycles

let test_unsafe_regions_never_slower () =
  (* "unsafe regions are faster than all the other allocators" — allow
     5% slack for moss, where cache luck dominates. *)
  List.iter
    (fun spec ->
      let unsafe = cycles spec Harness.Matrix.region_unsafe in
      List.iter
        (fun mode ->
          let other = cycles spec mode in
          check_bool
            (Printf.sprintf "%s: unsafe (%d) not slower than %s (%d)"
               spec.Workloads.Workload.name unsafe
               (Harness.Matrix.mode_label mode) other)
            true
            (float_of_int unsafe <= 1.25 *. float_of_int other))
        (Harness.Matrix.malloc_modes spec))
    workloads

let test_cost_of_safety_bounded () =
  (* Paper: negligible to 17%; we allow a slightly wider envelope. *)
  List.iter
    (fun spec ->
      let safe = cycles spec Harness.Matrix.region_safe in
      let unsafe = cycles spec Harness.Matrix.region_unsafe in
      let overhead = float_of_int safe /. float_of_int unsafe -. 1. in
      check_bool
        (Printf.sprintf "%s: safety overhead %.1f%% bounded"
           spec.Workloads.Workload.name (100. *. overhead))
        true
        (overhead >= -0.01 && overhead < 0.30))
    workloads

let test_regions_memory_competitive () =
  (* Paper: regions rank first or second in memory on every benchmark. *)
  List.iter
    (fun spec ->
      let reg = (get spec Harness.Matrix.region_safe).Workloads.Results.os_bytes in
      let others =
        List.map
          (fun mode -> (get spec mode).Workloads.Results.os_bytes)
          (Harness.Matrix.malloc_modes spec)
      in
      let better = List.length (List.filter (fun o -> o < reg) others) in
      check_bool
        (Printf.sprintf "%s: regions rank 1st or 2nd in memory"
           spec.Workloads.Workload.name)
        true (better <= 1))
    workloads

let test_gc_uses_most_memory_somewhere () =
  (* "The BSD allocator and the Boehm-Weiser garbage collector use a
     lot of memory": GC must be the worst on most benchmarks. *)
  let gc_worst =
    List.filter
      (fun spec ->
        let modes = Harness.Matrix.malloc_modes spec in
        let os mode = (get spec mode).Workloads.Results.os_bytes in
        let gc_mode =
          List.find
            (fun m -> Harness.Matrix.mode_label m = "GC")
            modes
        in
        List.for_all (fun m -> os m <= os gc_mode) modes)
      workloads
  in
  check_bool "GC worst on at least half the benchmarks" true
    (List.length gc_worst * 2 >= List.length workloads)

let test_moss_locality_effect () =
  let opt = get (Workloads.Workload.find "moss") Harness.Matrix.region_safe in
  let slow = Harness.Matrix.moss_slow_result (Lazy.force matrix) in
  let speedup =
    1.
    -. float_of_int opt.Workloads.Results.cycles
       /. float_of_int slow.Workloads.Results.cycles
  in
  (* Paper: 24% faster.  Accept 10-40%. *)
  check_bool
    (Printf.sprintf "two-region moss %.0f%% faster" (100. *. speedup))
    true
    (speedup > 0.10 && speedup < 0.45);
  let stalls r =
    r.Workloads.Results.read_stall_cycles + r.Workloads.Results.write_stall_cycles
  in
  check_bool "roughly half the stalls" true
    (float_of_int (stalls opt) < 0.8 *. float_of_int (stalls slow))

let test_bsd_fewer_stalls_than_other_mallocs_on_moss () =
  (* Paper: "the BSD memory allocator tends to have fewer stalls than
     the other explicit allocators; most visible with moss". *)
  let spec = Workloads.Workload.find "moss" in
  let stalls label =
    let mode =
      List.find
        (fun m -> Harness.Matrix.mode_label m = label)
        (Harness.Matrix.malloc_modes spec)
    in
    let r = get spec mode in
    r.Workloads.Results.read_stall_cycles + r.Workloads.Results.write_stall_cycles
  in
  check_bool "BSD < Sun" true (stalls "BSD" < stalls "Sun");
  check_bool "BSD < Lea" true (stalls "BSD" < stalls "Lea")

let test_emulation_overhead_only_for_region_only () =
  List.iter
    (fun spec ->
      let mode =
        if spec.Workloads.Workload.region_only then
          Workloads.Api.Emulated Workloads.Api.Lea
        else Workloads.Api.Direct Workloads.Api.Lea
      in
      let r = get spec mode in
      if spec.Workloads.Workload.region_only then
        check_bool (spec.Workloads.Workload.name ^ " has emu overhead") true
          (r.Workloads.Results.emu_overhead_bytes > 0)
      else
        check (spec.Workloads.Workload.name ^ " has no emu overhead") 0
          r.Workloads.Results.emu_overhead_bytes)
    workloads

let test_region_stats_present_only_for_region_mode () =
  let spec = Workloads.Workload.find "cfrac" in
  check_bool "region mode has region stats" true
    ((get spec Harness.Matrix.region_safe).Workloads.Results.regions <> None);
  check_bool "malloc mode has none" true
    ((get spec (Workloads.Api.Direct Workloads.Api.Sun)).Workloads.Results.regions
    = None)

let fresh_dir label =
  let dir = Filename.temp_file label "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let entries dir = Array.to_list (Sys.readdir dir) |> List.sort compare

(* An unknown experiment name is a usage error (exit 124) before the cell cache
   is touched: no cache directory or lock appears, so a daemon holding
   the lock cannot mask the typo. *)
let test_unknown_experiment_leaves_no_cache () =
  let dir = fresh_dir "repro-experiment-test" in
  let exe = Filename.concat (Sys.getcwd ()) "../bin/main.exe" in
  let code =
    Sys.command
      (Printf.sprintf "cd %s && env -u REPRO_CACHE_DIR %s experiment nosuch 2>/dev/null"
         (Filename.quote dir) (Filename.quote exe))
  in
  check "exit status" 124 code;
  check_bool "no cell cache created" false
    (Sys.file_exists (Filename.concat dir ".repro-cache"));
  Unix.rmdir dir

(* Every cell-taking subcommand rejects a cell it cannot run with a
   usage error (exit 124) before it creates any file: a direct mode of
   a region-based workload (the message names the emulated mode to
   use) and an unknown workload, whether the run is plain ([run W M]),
   traced ([run W M --trace DIR], the "trace" rows) or under a fault
   plan.  [faults] also rejects a MODE with --all-modes, [record] a
   variant the workload has no trace for, and [replay] a trace file
   that does not exist, --full or -j without --verify, and under
   --verify a MODE, --timeline, an unknown workload or one with no
   matrix cell.  A cache directory that is a regular file F is bad
   input instead (exit 2, one line of stderr): for [gen], and for
   [experiment] and [docs], whose lock file it cannot hold (no hint
   that another process owns the store: none does).
   Each case runs in a fresh directory that holds its --trace,
   --quarantine or -o path and TMPDIR, and must stay empty but for
   F. *)
let rejected_cells =
  let cells =
    [ ("mudlle sun", "emu-sun"); ("lcc gc", "emu-gc");
      ("nosuch sun", "unknown workload nosuch") ]
  in
  List.concat_map
    (fun cmd -> List.map (fun (cell, says) -> (cmd, cell, says)) cells)
    [ "run"; "trace"; "faults" ]
  @ [
      ("record", "nosuch", "unknown workload nosuch");
      ( "record",
        "cfrac --variant emu",
        "cfrac has no emu trace (its traces: malloc, region)" );
      ( "record",
        "cfrac --variant bogus",
        "cfrac has no bogus trace (its traces: malloc, region)" );
      ("replay", "nosuch sun", "no trace file nosuch");
      ("replay", "--verify cfrac sun", "--verify takes no MODE");
      ("replay", "--verify nosuch", "unknown workload nosuch");
      ("replay", "--verify game", "game has no matrix cell");
      ("replay", "--verify cfrac --timeline tl", "--timeline does not combine");
      ("replay", "t.trace sun -j 7", "--full and -j apply only to --verify");
      ("replay", "t.trace sun --full", "--full and -j apply only to --verify");
      ("faults", "cfrac bsd --all-modes", "--all-modes takes no MODE");
      ("faults", "cfrac sun --plan bogus", "bad --plan: clause");
      ( "experiment",
        "all --replay --trace out",
        "--replay cannot combine with --trace" );
      ( "gen",
        "--spec n=1000 --cache-dir F",
        "gen: F: not a writable cache directory" );
      ( "experiment",
        "table1 --cache-dir F",
        "repro: cannot open lock file F/LOCK: Not a directory" );
      ( "docs",
        "--check --cache-dir F",
        "repro: cannot open lock file F/LOCK: Not a directory" );
    ]

let test_cell_rejected (cmd, cell, says) () =
  let dir = fresh_dir "repro-cli-test" in
  let err = Filename.temp_file "repro-cli-test" ".err" in
  let exe = Filename.concat (Sys.getcwd ()) "../bin/main.exe" in
  let words = String.split_on_char ' ' cell in
  let args =
    match cmd with
    | "trace" -> ("run" :: words) @ [ "--trace"; "out" ]
    | "faults" ->
        let plan = if List.mem "--plan" words then [] else [ "--plan"; "budget=8" ] in
        (cmd :: words) @ plan @ [ "--quarantine"; "q" ]
    | "record" -> (cmd :: words) @ [ "-o"; "t.trace" ]
    | _ -> cmd :: words
  in
  let bad_input = List.mem "F" words in
  let seeded = if bad_input then [ "F" ] else [] in
  List.iter (fun f -> close_out (open_out (Filename.concat dir f))) seeded;
  let code =
    Sys.command
      (Printf.sprintf "cd %s && TMPDIR=%s %s %s >/dev/null 2>%s"
         (Filename.quote dir) (Filename.quote dir) (Filename.quote exe)
         (String.concat " " args) (Filename.quote err))
  in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  check "exit status" (if bad_input then 2 else 124) code;
  if bad_input then
    check "one line of stderr" 1
      (List.length (String.split_on_char '\n' (String.trim msg)));
  let rec mentions i =
    i + String.length says <= String.length msg
    && (String.sub msg i (String.length says) = says || mentions (i + 1))
  in
  check_bool ("names " ^ says) true (mentions 0);
  Alcotest.(check (list string)) "no file created" seeded (entries dir);
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) seeded;
  Sys.remove err;
  Unix.rmdir dir

(* The one cell check, over every workload and mode: it rejects
   exactly the direct modes of the region-based workloads, accepts
   every cell the report runs, and running a rejected cell raises the
   same message before its tracer sees a single event (no machine was
   built). *)
let test_cell_check_table () =
  let specs = Workloads.Workload.(all @ extras) in
  check "workloads" 13 (List.length specs);
  check "modes" 10 (List.length Workloads.Api.all_modes);
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      List.iter
        (fun mode ->
          let cell = spec.name ^ " " ^ Workloads.Api.mode_name mode in
          let direct =
            match mode with Workloads.Api.Direct _ -> true | _ -> false
          in
          match Workloads.Workload.check_cell spec mode with
          | Ok () ->
              check_bool (cell ^ " accepted") false (direct && spec.region_only)
          | Error msg ->
              check_bool (cell ^ " rejected") true (direct && spec.region_only);
              let events = ref 0 in
              let tracer =
                Obs.Tracer.create (fun ~kind:_ ~time:_ ~site:_ ~a:_ ~b:_ ->
                    incr events)
              in
              Alcotest.check_raises (cell ^ " run raises") (Invalid_argument msg)
                (fun () ->
                  ignore
                    (Workloads.Workload.run
                       ~observer:(Workloads.Api.Tracer tracer) spec mode
                       Workloads.Workload.Quick));
              check (cell ^ " simulated nothing") 0 !events)
        Workloads.Api.all_modes)
    specs;
  List.iter
    (fun ((spec : Workloads.Workload.spec), mode) ->
      check_bool
        (spec.name ^ " " ^ Workloads.Api.mode_name mode ^ " is a report cell")
        true
        (Workloads.Workload.check_cell spec mode = Ok ()))
    (Harness.Matrix.report_cells ())

(* A replay fill records its traces as temp files, with or without a
   cell cache; none of them may outlive the process, and none lands in
   the cache, which holds only cells and its lock. *)
let test_replay_fill_leaves_no_temp_files () =
  let dir = fresh_dir "repro-tmpdir-test" in
  let cache = fresh_dir "repro-cache-test" in
  let exe = Filename.concat (Sys.getcwd ()) "../bin/main.exe" in
  let fill flags =
    Sys.command
      (Printf.sprintf
         "cd %s && TMPDIR=%s %s experiment table2 --replay %s -j 1 \
          >/dev/null 2>&1"
         (Filename.quote dir) (Filename.quote dir) (Filename.quote exe) flags)
  in
  check "exit status" 0 (fill "--no-cache");
  Alcotest.(check (list string)) "TMPDIR left empty" [] (entries dir);
  check "exit status (cached)" 0
    (fill ("--cache-dir " ^ Filename.quote cache));
  Alcotest.(check (list string)) "TMPDIR left empty (cached)" [] (entries dir);
  let stored = entries cache in
  check_bool "cells stored" true
    (List.exists (fun f -> Filename.check_suffix f ".json") stored);
  Alcotest.(check (list string)) "only cells and LOCK in the cache" []
    (List.filter
       (fun f -> not (f = "LOCK" || Filename.check_suffix f ".json"))
       stored);
  List.iter (fun f -> Sys.remove (Filename.concat cache f)) stored;
  Unix.rmdir cache;
  Unix.rmdir dir

(* A replay matrix records a workload's traces exactly when it is one
   of the six benchmarks.  That rests on the report: each benchmark
   runs at least two modes per trace variant, so every trace it records
   has a column that replays it, and each extra appears under a single
   mode, so a trace of it would have none. *)
let test_recorded_traces_have_consumers () =
  let cells = Harness.Matrix.report_cells () in
  let modes_of (spec : Workloads.Workload.spec) =
    List.filter_map
      (fun ((s : Workloads.Workload.spec), m) ->
        if s.name = spec.name then Some m else None)
      cells
  in
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      List.iter
        (fun variant ->
          let modes =
            List.filter
              (fun m -> Trace.Record.variant_of_mode m = variant)
              (modes_of spec)
          in
          check_bool
            (spec.name ^ " " ^ variant ^ " trace has a replayed column")
            true
            (List.length modes >= 2))
        (Trace.Record.variants_for spec))
    Workloads.Workload.all;
  List.iter
    (fun (spec : Workloads.Workload.spec) ->
      check_bool (spec.name ^ " has at most one report cell") true
        (List.length (modes_of spec) <= 1))
    Workloads.Workload.extras

(* The artefact writer replaces a file whole, and a write that fails
   (here the rename: a non-empty directory sits at the path) leaves
   neither a temp file nor a change to what was there. *)
let test_write_file_atomic () =
  let dir = fresh_dir "repro-write-test" in
  let file = Filename.concat dir "out.txt" in
  Harness.Tracefiles.write_file file "old";
  Harness.Tracefiles.write_file file "new";
  Alcotest.(check string) "replaced" "new" (Harness.Docs.read_file file);
  Alcotest.(check (list string)) "no temp file" [ "out.txt" ] (entries dir);
  let busy = Filename.concat dir "busy" in
  Unix.mkdir busy 0o755;
  Harness.Tracefiles.write_file (Filename.concat busy "keep") "kept";
  (match Harness.Tracefiles.write_file busy "lost" with
  | () -> Alcotest.fail "writing over a non-empty directory succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check (list string)) "no temp file after a failed write"
    [ "busy"; "out.txt" ] (entries dir);
  Alcotest.(check string) "old contents intact" "kept"
    (Harness.Docs.read_file (Filename.concat busy "keep"));
  List.iter Sys.remove [ Filename.concat busy "keep"; file ];
  Unix.rmdir busy;
  Unix.rmdir dir

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "harness"
    [
      ( "plumbing",
        [
          tc "matrix caches" `Quick test_matrix_caches;
          tc "renders mention benchmarks" `Slow test_renders_contain_benchmarks;
          tc "table 1" `Quick test_table1_renders;
          tc "render helpers" `Quick test_render_helpers;
          tc "emulation overhead bookkeeping" `Quick
            test_emulation_overhead_only_for_region_only;
          tc "region stats presence" `Quick
            test_region_stats_present_only_for_region_mode;
          tc "replay fill leaves no temp files" `Quick
            test_replay_fill_leaves_no_temp_files;
          tc "recorded traces have consumers" `Quick
            test_recorded_traces_have_consumers;
          tc "artefact writes are atomic" `Quick test_write_file_atomic;
        ] );
      ( "paper claims",
        [
          tc "unsafe regions never slower" `Slow test_unsafe_regions_never_slower;
          tc "cost of safety bounded" `Slow test_cost_of_safety_bounded;
          tc "regions memory-competitive" `Slow test_regions_memory_competitive;
          tc "GC memory-hungry" `Slow test_gc_uses_most_memory_somewhere;
          tc "moss locality effect" `Slow test_moss_locality_effect;
          tc "BSD fewest malloc stalls on moss" `Slow
            test_bsd_fewer_stalls_than_other_mallocs_on_moss;
          tc "claims report all PASS" `Slow test_claims_all_pass;
          tc "limitation report" `Slow test_limitation_renders;
        ] );
      ( "parallel matrix",
        [
          tc "parallel_for covers all indices" `Quick
            test_parallel_for_covers_all_indices;
          tc "parallel_for propagates exceptions" `Quick
            test_parallel_for_exception_propagates;
          tc "4-domain run byte-identical" `Slow
            test_parallel_matrix_byte_identical;
        ] );
      ( "cli",
        [
          tc "unknown experiment leaves no cache" `Quick
            test_unknown_experiment_leaves_no_cache;
          tc "one cell check over every workload and mode" `Quick
            test_cell_check_table;
        ]
        @ List.map
            (fun ((cmd, cell, _) as case) ->
              tc (Printf.sprintf "%s of %s rejected" cmd cell) `Quick
                (test_cell_rejected case))
            rejected_cells );
    ]
