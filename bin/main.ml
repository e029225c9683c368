(* repro: command-line driver for the reproduction of "Memory
   Management with Explicit Regions" (Gay & Aiken, PLDI 1998). *)

open Cmdliner

let progress msg =
  Printf.eprintf "  %s\n%!" msg

let size_of_full full = if full then Workloads.Workload.Full else Workloads.Workload.Quick

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Run the full-size benchmark inputs.")

let jobs_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run independent matrix cells on $(docv) OCaml domains \
           (default: the runtime's recommended domain count; 1 = the \
           old sequential path).  Output is byte-identical either way.")

(* Advisory exclusion on shared stores: a batch run and a live [repro
   serve] daemon over the same cache directory (or journal) must not
   interleave writes.  Locks are held for the process lifetime; the OS
   releases them on any exit, including kill -9.  Second acquirers get
   the holder's name instead of silent interleaving. *)
let held_locks : (string, Results.Lockfile.t) Hashtbl.t = Hashtbl.create 4

let acquire_lock path =
  if not (Hashtbl.mem held_locks path) then
    match Results.Lockfile.acquire ~owner:"repro" path with
    | Ok l -> Hashtbl.replace held_locks path l
    | Error msg ->
        Printf.eprintf
          "repro: %s\n\
          \  (a `repro serve` daemon or another run owns this store; \
           stop it or pass a different --cache-dir)\n\
           %!"
          msg;
        exit 2

let matrix ?trace_dir ?(cache = true) ?(refresh = false) ?cache_dir ?plan
    ?seed ?replay full =
  let disk =
    if cache then begin
      let d = Results.Cache.create ?dir:cache_dir () in
      acquire_lock (Filename.concat (Results.Cache.dir d) "LOCK");
      Some d
    end
    else None
  in
  Harness.Matrix.create ~progress ?trace_dir ?disk ~refresh ?plan ?seed
    ?replay (size_of_full full)

(* Stats go to stderr: report bytes on stdout stay identical whether
   cells were computed or served from the disk cache. *)
let report_cache_stats m =
  match Harness.Matrix.disk_cache m with
  | None -> ()
  | Some disk ->
      let hits, misses = Harness.Matrix.cache_stats m in
      if hits > 0 || misses > 0 then
        Printf.eprintf "  cell cache: %d hit(s), %d miss(es) under %s\n%!"
          hits misses (Results.Cache.dir disk)

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the content-addressed cell cache: always recompute, \
           never read or write cached cells.")

let refresh_arg =
  Arg.(
    value & flag
    & info [ "refresh" ]
        ~doc:
          "Recompute every cell and overwrite its cache entry (ignore \
           cached results, still write fresh ones).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Cell cache directory (default: $(b,REPRO_CACHE_DIR) or \
           .repro-cache).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print one line to stderr per completed matrix cell (workload, \
           mode, simulated cycles, host wall ms).  Stdout is unchanged.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Enable the global metrics registry for this run and dump its \
           snapshot (counters, gauges, histograms) as JSON on stderr at \
           the end.  Off by default; report bytes are identical either \
           way.")

(* Enable the registry up front, hand back the stderr dump to run at
   the end.  Stdout is untouched, like the cache-stats line. *)
let with_metrics metrics =
  if metrics then Obs.Metrics.set_enabled Obs.Metrics.default true;
  fun () ->
    if metrics then
      prerr_endline
        (Results.Json.to_string ~indent:true
           (Results.Json.metrics_json
              (Obs.Metrics.snapshot Obs.Metrics.default)))

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"DIR"
        ~doc:
          "Also write per-cell trace artefacts (Chrome JSON, heap \
           time-series CSV, site tables, folded stacks, binary event \
           stream) under $(docv).  Tracing is pure observation: report \
           output is byte-identical.")

let cell_progress (t : Harness.Matrix.cell_timing) ~cycles =
  Printf.eprintf "  done %-16s %-8s %12d cycles %8.1f ms\n%!" t.workload
    t.mode cycles (t.wall_s *. 1000.)

let experiments =
  [
    ("table1", `Static (fun () -> Harness.Table1.render ()));
    ("table2", `Matrix Harness.Table23.render_table2);
    ("table3", `Matrix Harness.Table23.render_table3);
    ("fig8", `Matrix Harness.Fig8.render);
    ("fig9", `Matrix Harness.Fig9.render);
    ("fig10", `Matrix Harness.Fig10.render);
    ("fig11", `Matrix Harness.Fig11.render);
    ("ablations", `Static Harness.Ablations.render);
    ("limitation", `Static Harness.Limitation.render);
    ("claims", `Matrix Harness.Claims.render);
  ]

let run_experiment name m () =
  match List.assoc_opt name experiments with
  | None ->
      Printf.eprintf "unknown experiment %s (have: %s, all)\n" name
        (String.concat ", " (List.map fst experiments));
      exit 1
  | Some (`Static f) -> print_endline (f ())
  | Some (`Matrix f) ->
      print_endline (f m);
      report_cache_stats m

let run_all m jobs ~show_progress ?trace_dir ?resume ?timeout_s ?(retries = 0)
    ?quarantine () =
  let on_cell = if show_progress then Some cell_progress else None in
  let supervised =
    resume <> None || timeout_s <> None || retries > 0 || quarantine <> None
  in
  if supervised then begin
    Option.iter (fun j -> acquire_lock (j ^ ".lock")) resume;
    let sup =
      {
        Harness.Matrix.default_supervision with
        timeout_s;
        retries;
        journal = resume;
        quarantine;
      }
    in
    let report = Harness.Matrix.run_all_supervised ~domains:jobs ?on_cell sup m in
    if report.Harness.Matrix.resumed > 0 || report.Harness.Matrix.torn > 0 then
      Printf.eprintf
        "  resumed %d cells from the journal (%d damaged lines skipped)\n%!"
        report.Harness.Matrix.resumed report.Harness.Matrix.torn;
    (match report.Harness.Matrix.failures with
    | [] -> ()
    | failures ->
        (* Structured failure summary instead of a re-raised exception:
           the harness stays standing, reports, and exits non-zero. *)
        Printf.eprintf "experiment all: %d cell(s) FAILED\n"
          (List.length failures);
        List.iter
          (fun f -> Fmt.epr "  %a@." Harness.Matrix.pp_cell_failure f)
          failures;
        Option.iter
          (fun dir -> Printf.eprintf "  triage bundles under %s/\n" dir)
          quarantine;
        Printf.eprintf
          "  (report skipped: it would be incomplete; re-run%s after triage)\n%!"
          (match resume with
          | Some j -> Printf.sprintf " with --resume %s" j
          | None -> "");
        exit 1)
  end
  else if jobs > 1 || show_progress || trace_dir <> None then
    ignore (Harness.Matrix.run_all ~domains:jobs ?on_cell m);
  print_endline (Harness.Table1.render ());
  print_newline ();
  print_endline (Harness.Table23.render_table2 m);
  print_newline ();
  print_endline (Harness.Table23.render_table3 m);
  print_newline ();
  print_endline (Harness.Fig8.render m);
  print_endline (Harness.Fig9.render m);
  print_endline (Harness.Fig10.render m);
  print_endline (Harness.Fig11.render m);
  print_endline (Harness.Claims.render m);
  print_endline (Harness.Ablations.render ());
  print_newline ();
  print_endline (Harness.Limitation.render ());
  report_cache_stats m

let exp_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "table1, table2, table3, fig8, fig9, fig10, fig11, ablations, \
             limitation, claims, or all")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"JOURNAL"
          ~doc:
            "Crash-consistent journal file ('all' only).  Completed cells \
             are fsync'd to $(docv) as they finish; re-invoking with the \
             same journal after an interruption runs only the remaining \
             cells and renders a byte-identical report.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-s" ] ~docv:"S"
          ~doc:
            "Per-cell wall-clock watchdog in seconds ('all' only).  A cell \
             exceeding it counts as a transient failure, eligible for \
             --retries.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts per cell for transient host failures \
             (timeouts, ENOSPC, OOM), with exponential backoff ('all' \
             only).  Deterministic simulator failures are never retried.")
  in
  let quarantine_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "quarantine" ] ~docv:"DIR"
          ~doc:
            "Write a triage bundle (error report, heap verdicts, trace \
             artefacts of a diagnostic re-run) under $(docv) for every \
             cell that exhausts its attempts ('all' only).")
  in
  let replay_arg =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Record-once/replay-per-column: run each workload once per \
             trace variant and drive the remaining allocator columns from \
             its allocation trace.  Allocator-side measurements are \
             count-equivalent to full execution (see $(b,repro replay \
             --verify)); mutator-side cycle and stall figures are not \
             reproduced.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"SPEC"
          ~doc:
            "Run every cell under this fault plan (same clauses as \
             $(b,repro faults)).  The plan string becomes part of each \
             cell's cache address and provenance.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"Fault-plan seed (with --plan).")
  in
  let run name full jobs show_progress trace_dir resume timeout_s retries
      quarantine no_cache refresh cache_dir replay plan_spec seed metrics =
    let dump_metrics = with_metrics metrics in
    let plan =
      match plan_spec with
      | None -> None
      | Some s -> (
          match Fault.Plan.of_string ~seed s with
          | Ok p -> Some (p, s)
          | Error msg ->
              Printf.eprintf "bad --plan: %s\n" msg;
              exit 2)
    in
    if replay && plan <> None then begin
      Printf.eprintf "experiment: --replay cannot combine with --plan\n";
      exit 2
    end;
    if replay && trace_dir <> None then begin
      Printf.eprintf "experiment: --replay cannot combine with --trace\n";
      exit 2
    end;
    let m =
      matrix ?trace_dir ~cache:(not no_cache) ~refresh ?cache_dir ?plan ~seed
        ~replay full
    in
    if name = "all" then
      run_all m jobs ~show_progress ?trace_dir ?resume ?timeout_s ~retries
        ?quarantine ()
    else run_experiment name m ();
    dump_metrics ()
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure from the paper")
    Term.(
      const run $ name_arg $ full_arg $ jobs_arg $ progress_arg $ trace_arg
      $ resume_arg $ timeout_arg $ retries_arg $ quarantine_arg $ no_cache_arg
      $ refresh_arg $ cache_dir_arg $ replay_arg $ plan_arg $ seed_arg
      $ metrics_arg)

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:"cfrac, grobner, mudlle, lcc, tile, moss, moss-slow, game, game-correlated")

let mode_conv =
  let parse s =
    match
      List.find_opt
        (fun m -> Workloads.Api.mode_name m = s)
        Workloads.Api.all_modes
    with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown mode %s (have: %s)" s
                (String.concat ", "
                   (List.map Workloads.Api.mode_name Workloads.Api.all_modes))))
  in
  let print ppf m = Fmt.string ppf (Workloads.Api.mode_name m) in
  Arg.conv (parse, print)

let run_cmd =
  let mode_arg =
    Arg.(
      value
      & opt mode_conv (Workloads.Api.Region { safe = true })
      & info [ "mode" ] ~doc:"Memory manager: sun, bsd, lea, gc, emu-*, region, unsafe.")
  in
  let run name mode full =
    let spec = Workloads.Workload.find name in
    let r = Workloads.Workload.run_collect spec mode (size_of_full full) in
    Fmt.pr "%a@." Workloads.Results.pp r
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one memory manager")
    Term.(const run $ workload_arg $ mode_arg $ full_arg)

let trace_cmd =
  let mode_pos_arg =
    Arg.(
      value
      & pos 1 mode_conv (Workloads.Api.Region { safe = true })
      & info [] ~docv:"MODE"
          ~doc:"Memory manager: sun, bsd, lea, gc, emu-*, region, unsafe.")
  in
  let out_arg =
    Arg.(
      value & opt string "traces"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory for the artefacts.")
  in
  let sample_arg =
    Arg.(
      value
      & opt int Harness.Tracefiles.default_sample_cycles
      & info [ "sample-cycles" ] ~docv:"N"
          ~doc:"Time-series sampling period in simulated cycles.")
  in
  let run name mode out sample_cycles full =
    let spec = Workloads.Workload.find name in
    let r, tracer, files =
      Harness.Tracefiles.run_traced ~sample_cycles ~out spec mode
        (size_of_full full)
    in
    Fmt.pr "%a@.@." Workloads.Results.pp r;
    print_string (Obs.Export.site_table ~top:10 tracer);
    let ring = Obs.Tracer.ring tracer in
    Printf.printf
      "\n%d events (%d sampled intervals) -> %s\n\
      \  timeline : %s  (load in Perfetto / chrome://tracing)\n\
      \  heap     : %s\n\
      \  sites    : %s\n\
      \  flame    : %s  (flamegraph.pl / inferno-flamegraph)\n\
      \  raw      : %s\n"
      (Obs.Ring.total ring)
      (Obs.Sampler.length (Obs.Tracer.sampler tracer))
      files.Harness.Tracefiles.dir files.Harness.Tracefiles.trace_json
      files.Harness.Tracefiles.heap_csv files.Harness.Tracefiles.sites_txt
      files.Harness.Tracefiles.folded files.Harness.Tracefiles.events_bin
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one workload with the observability layer enabled and write \
          its event timeline, heap time-series and per-site profile"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs a single (workload, mode) cell with tracing on and \
              leaves five artefacts under --out: a Chrome trace_event JSON \
              timeline (phases, allocations, region and GC events, counter \
              tracks), a heap/stall time-series CSV, the per-site \
              attribution table, a folded-stack file for flame graphs, and \
              the raw binary event stream.  Simulated counts are identical \
              to an untraced run: observation never perturbs measurement.";
         ])
    Term.(
      const run $ workload_arg $ mode_pos_arg $ out_arg $ sample_arg
      $ full_arg)

let list_cmd =
  let run () =
    List.iter
      (fun s ->
        Printf.printf "%-8s %s%s\n" s.Workloads.Workload.name
          s.Workloads.Workload.description
          (if s.Workloads.Workload.region_only then
             " (region-based; malloc via emulation)"
           else ""))
      (Workloads.Workload.all @ Workloads.Workload.extras)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark workloads") Term.(const run $ const ())

let creg_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"creg source file")
  in
  let unsafe_arg =
    Arg.(value & flag & info [ "unsafe" ] ~doc:"Use unsafe regions (no reference counts).")
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:"Print the compiled bytecode (with liveness maps) instead of running.")
  in
  let run file unsafe dump =
    let ic = open_in file in
    let len = in_channel_length ic in
    let src = really_input_string ic len in
    close_in ic;
    if dump then begin
      match Creg.Compile.compile src with
      | prog ->
          Array.iter (fun f -> Fmt.pr "%a@." Creg.Bytecode.pp_func f) prog.Creg.Bytecode.bp_funcs
      | exception Creg.Typecheck.Error (msg, pos) ->
          Printf.eprintf "type error at %d:%d: %s\n" pos.Creg.Ast.line pos.Creg.Ast.col msg;
          exit 2
      | exception Creg.Parser.Error (msg, pos) ->
          Printf.eprintf "syntax error at %d:%d: %s\n" pos.Creg.Ast.line pos.Creg.Ast.col msg;
          exit 2
      | exception Creg.Lexer.Error (msg, pos) ->
          Printf.eprintf "lexical error at %d:%d: %s\n" pos.Creg.Ast.line pos.Creg.Ast.col msg;
          exit 2
    end
    else
    match Creg.Vm.run_source ~safe:(not unsafe) src with
    | outcome, lib ->
        List.iter (fun v -> Printf.printf "%d\n" v) outcome.Creg.Vm.output;
        let c = Sim.Cost.cycles (Sim.Memory.cost (Regions.Region.memory lib)) in
        Printf.eprintf "exit value: %d (%d simulated cycles)\n"
          outcome.Creg.Vm.exit_value c
    | exception Creg.Vm.Fault msg ->
        Printf.eprintf "runtime fault: %s\n" msg;
        exit 2
    | exception Creg.Typecheck.Error (msg, pos) ->
        Printf.eprintf "type error at %d:%d: %s\n" pos.Creg.Ast.line pos.Creg.Ast.col msg;
        exit 2
    | exception Creg.Parser.Error (msg, pos) ->
        Printf.eprintf "syntax error at %d:%d: %s\n" pos.Creg.Ast.line pos.Creg.Ast.col msg;
        exit 2
    | exception Creg.Lexer.Error (msg, pos) ->
        Printf.eprintf "lexical error at %d:%d: %s\n" pos.Creg.Ast.line pos.Creg.Ast.col msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "creg" ~doc:"Compile and run a creg (C@-like) program on the safe region runtime")
    Term.(const run $ file_arg $ unsafe_arg $ dump_arg)

let faults_cmd =
  let mode_pos_arg =
    Arg.(
      value
      & pos 1 mode_conv (Workloads.Api.Region { safe = true })
      & info [] ~docv:"MODE"
          ~doc:"Memory manager: sun, bsd, lea, gc, emu-*, region, unsafe.")
  in
  let plan_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "plan" ] ~docv:"SPEC"
          ~doc:
            "Fault plan: comma-separated clauses $(b,budget=N) (page wall), \
             $(b,oom-at=N) (deny the Nth map, then recover), \
             $(b,ramp=START:SLOPE) (denial probability ramp), \
             $(b,flip=EVERY:BIT) (bit-flip corruption), or $(b,none).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Plan seed: the same --plan/--seed pair replays the same \
             injected faults exactly, on any machine.")
  in
  let all_modes_arg =
    Arg.(
      value & flag
      & info [ "all-modes" ]
          ~doc:"Run the workload's whole allocator row instead of one MODE.")
  in
  let quarantine_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "quarantine" ] ~docv:"DIR"
          ~doc:"Write a triage bundle under $(docv) for non-graceful outcomes.")
  in
  let run name mode all_modes plan_spec seed full quarantine =
    let spec = Workloads.Workload.find name in
    match Fault.Plan.of_string ~seed plan_spec with
    | Error msg ->
        Printf.eprintf "bad --plan: %s\n" msg;
        exit 2
    | Ok plan ->
        let modes =
          if all_modes then Workloads.Workload.modes_for spec else [ mode ]
        in
        let graceful =
          List.map
            (fun mode ->
              let o =
                Harness.Faultrun.run ~plan spec mode (size_of_full full)
              in
              Fmt.pr "%a@.@." Harness.Faultrun.pp_outcome o;
              let ok = Harness.Faultrun.graceful o in
              if not ok then
                Option.iter
                  (fun dir ->
                    let last_error =
                      Fmt.str "%a"
                        (fun ppf (o : Harness.Faultrun.outcome) ->
                          match o.Harness.Faultrun.status with
                          | Harness.Faultrun.Crashed s -> Fmt.pf ppf "crashed: %s" s
                          | _ -> Fmt.pf ppf "heap check failed after fault plan")
                        o
                    in
                    match
                      Harness.Triage.write_bundle ~dir
                        ~workload:spec.Workloads.Workload.name
                        ~mode:(Workloads.Api.mode_name mode) ~attempts:1
                        ~last_error ~backtrace:"" ~plan
                        ~retrace:(spec, mode, size_of_full full) ()
                    with
                    | Some bundle ->
                        Printf.eprintf "  triage bundle: %s\n%!" bundle
                    | None -> ())
                  quarantine;
              ok)
            modes
        in
        if not (List.for_all Fun.id graceful) then exit 1
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run one workload under a deterministic fault plan and check it \
          degrades gracefully"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Installs a seed-reproducible schedule of injected failures \
              (page-budget walls, one-shot OOMs, denial-probability ramps, \
              bit-flip corruption) at the simulated machine's page-map \
              boundary, runs the workload, and reports how it degraded.  \
              Exit status is 0 iff every run was graceful: the workload \
              completed or surfaced the documented fault, and every heap \
              structure still passed its consistency walk.";
           `P
             "Denial clauses (budget/oom-at/ramp) are expected to be \
              graceful everywhere.  $(b,flip) clauses corrupt mapped heap \
              words: detecting those is the sanitizer's job ($(b,repro \
              check) and the test suite aim them at redzones); under a \
              plain workload a flip may legitimately break a heap check — \
              that non-graceful exit is the finding, not a harness bug.";
         ])
    Term.(
      const run $ workload_arg $ mode_pos_arg $ all_modes_arg $ plan_arg
      $ seed_arg $ full_arg $ quarantine_arg)

let check_cmd =
  let traces_arg =
    Arg.(
      value & opt int 200
      & info [ "traces" ] ~docv:"N"
          ~doc:"Differential traces to replay per allocator.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Base RNG seed; trace $(i,k) uses SEED+$(i,k), so any failure \
             report can be replayed exactly.")
  in
  let run traces seed =
    if Check.Fuzz.main ~progress ~traces ~seed () then
      print_endline "check: all allocators clean"
    else begin
      print_endline "check: FAILED";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Sanitized differential fuzz of all five allocators"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Replays fixed-seed malloc/free/realloc traces against the Sun, \
              BSD, Lea, collector and region allocators, each wrapped in the \
              redzone/poison sanitizer, cross-checking contents, sizes, \
              overlap and statistics against a reference model; then injects \
              out-of-memory faults at the page-map level, and finally checks \
              that a deliberately broken allocator is caught.";
         ])
    Term.(const run $ traces_arg $ seed_arg)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let docs_cmd =
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Verify instead of write: regenerate into memory and exit \
             non-zero with a readable diff if the committed document or the \
             golden results file disagree with fresh measurements.")
  in
  let doc_arg =
    Arg.(
      value & opt string "EXPERIMENTS.md"
      & info [ "doc" ] ~docv:"FILE"
          ~doc:"Document whose generated blocks to rewrite or check.")
  in
  let golden_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "golden" ] ~docv:"FILE"
          ~doc:
            "Machine-readable golden results (written on regeneration, \
             compared measurement-by-measurement on --check; provenance is \
             ignored, build ids legitimately differ between builds).  \
             Default: results/golden-quick.json, or \
             results/golden-full.json under --full.")
  in
  let drift_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "drift-dir" ] ~docv:"DIR"
          ~doc:
            "On --check failure, also write the regenerated document and \
             results under $(docv) so CI can upload them as an artifact.")
  in
  let run check doc golden drift_dir jobs show_progress no_cache refresh
      cache_dir full =
    let golden =
      match golden with
      | Some g -> g
      | None ->
          if full then "results/golden-full.json"
          else "results/golden-quick.json"
    in
    let m = matrix ~cache:(not no_cache) ~refresh ?cache_dir full in
    let on_cell = if show_progress then Some cell_progress else None in
    ignore (Harness.Matrix.run_all ~domains:jobs ?on_cell m);
    if full then begin
      (* The document's generated blocks are quick-run renders; at full
         size only the machine-readable store is gated (the cron CI
         job).  Rendering the doc from a full matrix would "drift" it
         by construction. *)
      let fresh = Harness.Matrix.store m in
      report_cache_stats m;
      if check then begin
        match Results.Store.load golden with
        | Error msg ->
            Printf.eprintf "docs: %s: %s\n" golden msg;
            exit 1
        | Ok expected -> (
            match Results.Store.diff ~expected ~actual:fresh with
            | [] ->
                Printf.printf "docs: %s (%d cells) is up to date\n" golden
                  (Results.Store.length fresh)
            | lines ->
                Printf.eprintf
                  "docs: committed full-size golden disagrees with \
                   regeneration:\n";
                List.iter (fun l -> Printf.eprintf "%s: %s\n" golden l) lines;
                Option.iter
                  (fun dir ->
                    mkdir_p dir;
                    let out = Filename.concat dir (Filename.basename golden) in
                    Results.Store.save fresh out;
                    Printf.eprintf "docs: regenerated copy under %s/\n" dir)
                  drift_dir;
                Printf.eprintf
                  "docs: run `repro docs --full` and commit the result\n%!";
                exit 1)
      end
      else begin
        Results.Store.save fresh golden;
        Printf.printf "docs: wrote %s (%d cells)\n" golden
          (Results.Store.length fresh)
      end;
      exit 0
    end;
    let current =
      try Harness.Docs.read_file doc
      with Sys_error msg ->
        Printf.eprintf "docs: cannot read %s: %s\n" doc msg;
        exit 2
    in
    match Harness.Docs.regenerate m current with
    | Error msg ->
        Printf.eprintf "docs: %s: %s\n" doc msg;
        exit 2
    | Ok regenerated ->
        let fresh = Harness.Matrix.store m in
        report_cache_stats m;
        let nblocks = List.length (Harness.Docs.block_ids current) in
        if check then begin
          let doc_drift =
            Harness.Docs.drift ~label:doc ~current ~regenerated
          in
          let golden_drift =
            match Results.Store.load golden with
            | Error msg -> [ Printf.sprintf "%s: %s" golden msg ]
            | Ok expected ->
                List.map
                  (fun line -> Printf.sprintf "%s: %s" golden line)
                  (Results.Store.diff ~expected ~actual:fresh)
          in
          match doc_drift @ golden_drift with
          | [] ->
              Printf.printf
                "docs: %s (%d generated blocks) and %s (%d cells) are up to \
                 date\n"
                doc nblocks golden (Results.Store.length fresh)
          | lines ->
              Printf.eprintf
                "docs: committed outputs disagree with regeneration:\n";
              List.iter (fun l -> Printf.eprintf "%s\n" l) lines;
              Option.iter
                (fun dir ->
                  mkdir_p dir;
                  let doc_out = Filename.concat dir (Filename.basename doc) in
                  let golden_out =
                    Filename.concat dir (Filename.basename golden)
                  in
                  Harness.Docs.write_file doc_out regenerated;
                  Results.Store.save fresh golden_out;
                  Printf.eprintf "docs: regenerated copies under %s/\n" dir)
                drift_dir;
              Printf.eprintf
                "docs: run `repro docs` (or dune exec repro -- docs) and \
                 commit the result\n%!";
              exit 1
        end
        else begin
          Harness.Docs.write_file doc regenerated;
          Results.Store.save fresh golden;
          Printf.printf "docs: wrote %s (%d generated blocks) and %s (%d \
                         cells)\n"
            doc nblocks golden (Results.Store.length fresh)
        end
  in
  Cmd.v
    (Cmd.info "docs"
       ~doc:
         "Regenerate (or --check) the generated numeric blocks of \
          EXPERIMENTS.md and the golden results file"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the quick evaluation matrix and rewrites every \
              $(b,<!-- generated:ID -->) block of the document from the \
              measured results, together with a machine-readable golden \
              results JSON carrying full provenance (build id, seed, fault \
              plan) per cell.  With $(b,--check), nothing is written: the \
              command exits non-zero with a line diff if the committed \
              document or golden file disagrees with fresh measurements — \
              the CI docs gate.  With $(b,--full), the full-size matrix is \
              run and only the golden store (results/golden-full.json) is \
              written or checked: the document's blocks stay quick-run \
              renders (this is the scheduled full-size CI gate).";
         ])
    Term.(
      const run $ check_arg $ doc_arg $ golden_arg $ drift_dir_arg $ jobs_arg
      $ progress_arg $ no_cache_arg $ refresh_arg $ cache_dir_arg $ full_arg)

let variant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "variant" ] ~docv:"VARIANT"
        ~doc:
          "Trace variant: $(b,malloc) (serves the direct columns), \
           $(b,emu) (emulated columns, region-only workloads) or \
           $(b,region) (safe/unsafe regions).  Default: the workload's \
           malloc-side variant.")

let default_variant (spec : Workloads.Workload.spec) = function
  | Some v -> v
  | None -> if spec.Workloads.Workload.region_only then "emu" else "malloc"

let print_trace_stats path =
  match Trace.Format.open_file path with
  | Error msg ->
      Printf.eprintf "record: wrote an unreadable trace (%s)\n" msg;
      exit 2
  | Ok rd ->
      let hdr = Trace.Format.header rd in
      Printf.printf
        "%s: %s/%s under %s (%s), %d records, %d objects, %d regions, %d \
         bytes\n"
        path hdr.Trace.Format.workload hdr.Trace.Format.variant
        hdr.Trace.Format.mode hdr.Trace.Format.size (Trace.Format.records rd)
        (Trace.Format.objects rd) (Trace.Format.regions rd)
        (Unix.stat path).Unix.st_size;
      Trace.Format.close rd

let record_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Trace file (default: WORKLOAD-VARIANT-SIZE.trace).")
  in
  let run name variant out full =
    let spec = Workloads.Workload.find name in
    let variant = default_variant spec variant in
    let size = size_of_full full in
    let out =
      match out with
      | Some p -> p
      | None ->
          Printf.sprintf "%s-%s-%s.trace" name variant
            (if full then "full" else "quick")
    in
    let r = Trace.Record.record ~out ~variant spec size in
    Printf.printf "recorded %s under %s: %s\n" name
      (Workloads.Api.mode_name (Trace.Record.recording_mode variant))
      r.Workloads.Results.summary;
    print_trace_stats out
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Record one workload's allocation trace to a file"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the workload once under the variant's recording mode \
              with a trace recorder attached and writes the compact binary \
              trace (header, operation records, sealed trailer).  \
              Recording is pure observation: the run's measurements are \
              identical to an unrecorded run.  The trace replays against \
              every allocator column its variant serves ($(b,repro \
              replay)).";
         ])
    Term.(const run $ workload_arg $ variant_arg $ out_arg $ full_arg)

let replay_cmd =
  let workload_opt_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload to replay (every workload under --verify).")
  in
  let mode_pos_arg =
    Arg.(
      value
      & pos 1 (some mode_conv) None
      & info [] ~docv:"MODE"
          ~doc:"Memory manager column to replay against.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Golden cross-check: for every matrix cell (of WORKLOAD, or \
             all 37), diff the replayed allocator-side measurements \
             against full execution and exit non-zero on any divergence.")
  in
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-file" ] ~docv:"FILE"
          ~doc:
            "Replay this previously recorded trace ($(b,repro record)) \
             instead of recording a fresh temporary one.")
  in
  let timeline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"DIR"
          ~doc:
            "Attach a heap-timeline profiler to the replay and write one \
             $(b,MODE.csv) per replayed column into DIR (memory curves \
             over the allocation-event clock at bounded profiling \
             memory).  With $(b,--trace-file) and no MODE, every column \
             the trace's variant serves is replayed.")
  in
  let run workload mode verify trace_file timeline_dir metrics jobs full =
    let size = size_of_full full in
    let dump_metrics = with_metrics metrics in
    if verify then begin
      let checked, diffs =
        Harness.Replaycheck.verify ?workload ~domains:jobs ~progress size
      in
      if diffs = [] then begin
        Printf.printf
          "replay verify: %d cells, every allocator-side measurement \
           count-equivalent\n"
          checked;
        dump_metrics ()
      end
      else begin
        Printf.printf "replay verify: %d divergence(s) over %d cells:\n"
          (List.length diffs) checked;
        List.iter (fun d -> Fmt.pr "  %a@." Harness.Replaycheck.pp_diff d) diffs;
        dump_metrics ();
        exit 1
      end
    end
    else begin
      (* One replay of [path] against [mode], optionally profiled. *)
      let replay_one ?timeline path mode =
        match Trace.Format.open_file path with
        | Error msg ->
            Printf.eprintf "replay: %s: %s\n" path msg;
            exit 2
        | Ok rd ->
            Fun.protect
              ~finally:(fun () -> Trace.Format.close rd)
              (fun () -> Trace.Replay.run ?timeline rd mode)
      in
      let write_timeline dir mode tl =
        Harness.Tracefiles.mkdir_p dir;
        let out =
          Filename.concat dir (Workloads.Api.mode_name mode ^ ".csv")
        in
        Obs.Timeline.write_csv tl out;
        Printf.printf "timeline: %s (%d samples @ every %d events)\n" out
          (Obs.Timeline.length tl)
          (Obs.Timeline.interval tl)
      in
      (match mode with
      | Some mode ->
          let path, cleanup =
            match trace_file with
            | Some p -> (p, fun () -> ())
            | None ->
                let workload =
                  match workload with
                  | Some w -> w
                  | None ->
                      Printf.eprintf
                        "replay: WORKLOAD is required without --trace-file\n";
                      exit 2
                in
                let spec = Workloads.Workload.find workload in
                let tmp = Filename.temp_file "repro-replay" ".trace" in
                progress
                  (Printf.sprintf "recording %s (%s trace) ..." workload
                     (Trace.Record.variant_of_mode mode));
                ignore
                  (Trace.Record.record ~out:tmp
                     ~variant:(Trace.Record.variant_of_mode mode) spec size);
                (tmp, fun () -> try Sys.remove tmp with Sys_error _ -> ())
          in
          Fun.protect ~finally:cleanup (fun () ->
              let timeline =
                Option.map (fun _ -> Obs.Timeline.create ()) timeline_dir
              in
              let r = replay_one ?timeline path mode in
              (match (timeline_dir, timeline) with
              | Some dir, Some tl -> write_timeline dir mode tl
              | _ -> ());
              Fmt.pr "%a@." Workloads.Results.pp r)
      | None -> (
          (* No MODE: profile every column the trace's variant serves —
             only meaningful for a pre-recorded trace with --timeline. *)
          match (trace_file, timeline_dir) with
          | Some path, Some dir ->
              let variant =
                match Trace.Format.open_file path with
                | Error msg ->
                    Printf.eprintf "replay: %s: %s\n" path msg;
                    exit 2
                | Ok rd ->
                    Fun.protect
                      ~finally:(fun () -> Trace.Format.close rd)
                      (fun () -> (Trace.Format.header rd).Trace.Format.variant)
              in
              let modes =
                List.filter
                  (fun m -> Trace.Record.variant_of_mode m = variant)
                  Workloads.Api.all_modes
              in
              List.iter
                (fun mode ->
                  let tl = Obs.Timeline.create () in
                  let r = replay_one ~timeline:tl path mode in
                  Printf.printf "%-16s %s\n"
                    (Workloads.Api.mode_name mode)
                    r.Workloads.Results.summary;
                  write_timeline dir mode tl)
                modes
          | _ ->
              Printf.eprintf
                "replay: MODE is required without --verify (pass \
                 --trace-file FILE --timeline DIR to profile every column \
                 the trace serves)\n";
              exit 2));
      dump_metrics ()
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a recorded allocation trace against an allocator column"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Drives the requested memory manager from a workload's \
              recorded allocation trace, skipping the mutator compute that \
              produced it.  Allocator-side measurements (allocation, \
              refcount, stack-scan and cleanup instructions, OS bytes, \
              requested stats, region summaries) are count-equivalent to \
              full execution; mutator-side cycles and stalls are not \
              reproduced.  $(b,--verify) proves the equivalence \
              empirically, cell by cell.  $(b,--timeline DIR) attaches \
              the bounded-memory heap profiler and writes one CSV per \
              replayed column; $(b,--metrics) enables the global metrics \
              registry and dumps its snapshot as JSON on stderr.";
         ])
    Term.(
      const run $ workload_opt_arg $ mode_pos_arg $ verify_arg
      $ trace_file_arg $ timeline_arg $ metrics_arg $ jobs_arg $ full_arg)

let gen_cmd =
  let spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:
            "Full generator spec as one comma-separated $(b,key=value) \
             string (the canonical form printed in the trace header).  \
             Individual knobs below override its fields.")
  in
  let objects_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "objects" ] ~docv:"N"
          ~doc:"Total objects allocated over the trace (default 1000000).")
  in
  let gvariant_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "variant" ] ~docv:"VARIANT"
          ~doc:
            "$(b,malloc) (serves the heap columns: sun/bsd/lea/gc) or \
             $(b,region) (safe/unsafe regions).  Default: malloc.")
  in
  let size_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "size" ] ~docv:"DIST"
          ~doc:
            "Object size distribution: $(b,table2), $(b,uniform:LO:HI) or \
             $(b,heavy:LO:CAP).  Default: table2.")
  in
  let life_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "life" ] ~docv:"DIST"
          ~doc:
            "Lifetime distribution: $(b,lifo:BATCH) (region-friendly), \
             $(b,exp:MEAN) or $(b,long:PCT:MEAN) (PCT% immortal).  \
             Default: lifo:256.")
  in
  let stores_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "stores" ] ~docv:"K"
          ~doc:"Pointer stores emitted per allocation (default 1).")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed (default 1).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the trace here unconditionally.  Default: the \
             content-addressed cache slot, reused if already generated.")
  in
  let run spec objects variant size life stores seed out cache_dir =
    let p =
      match spec with
      | None -> Trace.Gen.default
      | Some s -> (
          match Trace.Gen.of_string s with
          | Ok p -> p
          | Error msg ->
              Printf.eprintf "gen: bad --spec: %s\n" msg;
              exit 2)
    in
    let field name conv v cur =
      match v with
      | None -> cur
      | Some s -> (
          match conv s with
          | Ok x -> x
          | Error msg ->
              Printf.eprintf "gen: bad --%s: %s\n" name msg;
              exit 2)
    in
    let p =
      {
        Trace.Gen.objects =
          (match objects with None -> p.Trace.Gen.objects | Some n -> n);
        variant =
          (match variant with None -> p.Trace.Gen.variant | Some v -> v);
        sizes =
          field "size"
            (fun s ->
              Result.map
                (fun (g : Trace.Gen.t) -> g.Trace.Gen.sizes)
                (Trace.Gen.of_string ("size=" ^ s)))
            size p.Trace.Gen.sizes;
        lifetime =
          field "life"
            (fun s ->
              Result.map
                (fun (g : Trace.Gen.t) -> g.Trace.Gen.lifetime)
                (Trace.Gen.of_string ("life=" ^ s)))
            life p.Trace.Gen.lifetime;
        stores =
          (match stores with None -> p.Trace.Gen.stores | Some k -> k);
        seed = (match seed with None -> p.Trace.Gen.seed | Some s -> s);
      }
    in
    (* Re-validate the assembled params through the canonical parser so
       knob combinations get the same checks as --spec. *)
    let p =
      match Trace.Gen.of_string (Trace.Gen.to_string p) with
      | Ok p -> p
      | Error msg ->
          Printf.eprintf "gen: %s\n" msg;
          exit 2
    in
    let path =
      match out with
      | Some out ->
          progress (Printf.sprintf "generating %s ..." (Trace.Gen.to_string p));
          Trace.Gen.generate ~out p;
          out
      | None ->
          let cache = Results.Cache.create ?dir:cache_dir () in
          Trace.Gen.ensure ~cache ~progress p
    in
    print_trace_stats path
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate a synthetic allocation trace from a distribution spec"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Emits a valid binary trace directly from parameterised size \
              and lifetime distributions — no workload execution — so the \
              replay columns ($(b,repro replay --trace-file)) can be \
              driven at object counts the full matrix cannot reach.  \
              Generation is deterministic: the same spec yields \
              byte-identical traces on every host, so by default the \
              trace lands in the content-addressed cache and is reused.  \
              Generated traces mark their trailer with the recycled-ids \
              flag; replay memory then scales with the peak $(i,live) \
              object count, not the trace length.";
         ])
    Term.(
      const run $ spec_arg $ objects_arg $ gvariant_arg $ size_arg $ life_arg
      $ stores_arg $ seed_arg $ out_arg $ cache_dir_arg)

let results_cmd =
  let a_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"A" ~doc:"Left-hand results store.")
  in
  let b_arg =
    Arg.(
      required
      & pos 2 (some file) None
      & info [] ~docv:"B" ~doc:"Right-hand results store.")
  in
  let sub_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("compare", `Compare) ])) None
      & info [] ~docv:"compare" ~doc:"Subcommand (only $(b,compare)).")
  in
  let run `Compare a b =
    let load path =
      match Results.Store.load path with
      | Ok s -> s
      | Error msg ->
          Printf.eprintf "results compare: %s: %s\n" path msg;
          exit 2
    in
    let ea = load a and eb = load b in
    match Results.Store.diff ~expected:ea ~actual:eb with
    | [] ->
        Printf.printf
          "results compare: %s and %s agree on every measurement (%d cells)\n"
          a b (Results.Store.length ea)
    | lines ->
        Printf.printf "results compare: %d difference(s):\n" (List.length lines);
        List.iter (fun l -> Printf.printf "  %s\n" l) lines;
        exit 1
  in
  Cmd.v
    (Cmd.info "results"
       ~doc:"Compare two results stores"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "$(b,repro results compare A B) diffs two results stores \
              (golden-quick.json and friends) measurement-by-measurement \
              with provenance ignored.  Exit status 0 iff they agree.";
         ])
    Term.(const run $ sub_arg $ a_arg $ b_arg)

(* ------------------------------------------------------------------ *)
(* serve / serveload *)

let socket_arg ~default =
  Arg.(
    value & opt string default
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path (keep it short: the OS caps \
           socket paths at ~100 bytes, so /tmp beats deep build \
           trees).")

let serve_cmd =
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains running cold cells.")
  in
  let max_clients_arg =
    Arg.(
      value & opt int 512
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "Concurrent connections; beyond this, new connections get \
             one Overloaded frame and a close.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 256
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission bound on distinct in-flight cold cells; beyond \
             this a cold request is answered Overloaded immediately.")
  in
  let timeout_arg =
    Arg.(
      value & opt (some float) (Some 60.)
      & info [ "timeout-s" ] ~docv:"S"
          ~doc:
            "Per-attempt cell watchdog (a request deadline caps it \
             further).  0 disables.")
  in
  let retries_arg =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts per cold cell for transient failures, with \
             exponential backoff.")
  in
  let write_timeout_arg =
    Arg.(
      value & opt float 10.
      & info [ "write-timeout-s" ] ~docv:"S"
          ~doc:
            "Drop a client that accepts no response bytes for this \
             long (slow-client protection).")
  in
  let cache_max_mb_arg =
    Arg.(
      value & opt (some int) None
      & info [ "cache-max-mb" ] ~docv:"MB"
          ~doc:
            "Size-cap the cell cache: periodic sweeps evict \
             least-recently-served entries (mtime LRU) until under the \
             cap.")
  in
  let journal_arg =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Keyed crash-consistent journal (default: \
             $(b,<cache-dir>/serve.journal)).  Recovered into the cache \
             on startup.")
  in
  let drain_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "drain-timeout-s" ] ~docv:"S"
          ~doc:
            "Hard bound on the SIGTERM graceful drain: cell attempts \
             still in flight at the deadline are abandoned (their \
             waiters get Failed) rather than awaited.")
  in
  let metrics_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"PATH"
          ~doc:"Write the final metrics snapshot (JSON) here on exit.")
  in
  let run socket cache_dir journal workers max_clients max_queue timeout_s
      retries write_timeout_s cache_max_mb drain_timeout_s metrics_out =
    let cache_dir =
      match cache_dir with Some d -> d | None -> Results.Cache.default_dir ()
    in
    let journal =
      match journal with
      | Some j -> j
      | None -> Filename.concat cache_dir "serve.journal"
    in
    let cfg =
      {
        (Serve.Daemon.default_config ~socket ~cache_dir ~journal) with
        Serve.Daemon.workers;
        max_clients;
        max_queue;
        cell_timeout_s =
          (match timeout_s with Some t when t > 0. -> Some t | _ -> None);
        retries;
        write_timeout_s;
        cache_max_mb;
        drain_timeout_s;
        metrics_out;
        log = (fun s -> Printf.eprintf "serve: %s\n%!" s);
      }
    in
    match Serve.Daemon.run cfg with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "serve: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Crash-safe concurrent cell daemon over a Unix-domain socket"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Accepts (workload, mode, size, seed, fault-plan) cell \
              requests over a length-prefixed framed protocol, dedupes \
              identical in-flight requests, serves warm cells at O(read) \
              from the content-addressed cache, and runs cold cells on a \
              worker-domain pool under the batch harness's supervision \
              (watchdog, transient-only retries, fsync'd journal).  \
              kill -9 at any instant loses nothing durable: a restart \
              recovers journaled cells byte-identically.  SIGTERM drains \
              gracefully.  The cache directory and journal are held \
              under advisory locks; concurrent $(b,repro experiment) \
              runs on the same store fail fast with a diagnostic.";
         ])
    Term.(
      const run $ socket_arg ~default:"/tmp/repro-serve.sock" $ cache_dir_arg
      $ journal_arg $ workers_arg $ max_clients_arg $ max_queue_arg
      $ timeout_arg $ retries_arg $ write_timeout_arg $ cache_max_mb_arg
      $ drain_timeout_arg $ metrics_out_arg)

let serveload_cmd =
  let clients_arg =
    Arg.(
      value & opt int 64
      & info [ "clients" ] ~docv:"N"
          ~doc:
            "Concurrent synthetic clients (OS threads); total requests \
             ride through them.")
  in
  let requests_arg =
    Arg.(
      value & opt int 500
      & info [ "requests" ] ~docv:"N"
          ~doc:"Total request slots (ignored with --duration-s).")
  in
  let duration_arg =
    Arg.(
      value & opt float 0.
      & info [ "duration-s" ] ~docv:"S"
          ~doc:"Soak mode: run for this long instead of a fixed count.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Chaos seed: request mix, garbage frames, disconnects and \
             their timing all derive from it.")
  in
  let kill_arg =
    Arg.(
      value & opt_all float []
      & info [ "kill" ] ~docv:"T"
          ~doc:
            "kill -9 the daemon T seconds into the run and restart it \
             (repeatable).")
  in
  let p_garbage_arg =
    Arg.(
      value & opt float 0.03
      & info [ "p-garbage" ] ~docv:"P"
          ~doc:"Per-slot probability of sending an unframeable frame.")
  in
  let p_disconnect_arg =
    Arg.(
      value & opt float 0.03
      & info [ "p-disconnect" ] ~docv:"P"
          ~doc:"Per-slot probability of hanging up mid-frame.")
  in
  let budget_arg =
    Arg.(
      value & opt float 60.
      & info [ "budget-s" ] ~docv:"S"
          ~doc:
            "Per-request resolve budget; a slot still unresolved past \
             it counts as a hung client and fails the run.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline-s" ] ~docv:"S"
          ~doc:"deadline_s field sent with every request.")
  in
  let workloads_mix_arg =
    Arg.(
      value & opt string "cfrac"
      & info [ "workloads" ] ~docv:"CSV"
          ~doc:"Workloads in the request mix.")
  in
  let modes_mix_arg =
    Arg.(
      value & opt string "sun,gc,region"
      & info [ "modes" ] ~docv:"CSV" ~doc:"Modes in the request mix.")
  in
  let mix_plan_arg =
    Arg.(
      value & opt (some string) None
      & info [ "mix-plan" ] ~docv:"SPEC"
          ~doc:
            "Also include every mix cell under this fault plan (e.g. a \
             denial ramp $(b,ramp=0:0.002)) — fault-plan cells must \
             resolve like any other.")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N" ~doc:"Daemon worker domains.")
  in
  let cache_max_mb_arg =
    Arg.(
      value & opt (some int) None
      & info [ "cache-max-mb" ] ~docv:"MB" ~doc:"Daemon cache size cap.")
  in
  let metrics_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"PATH"
          ~doc:"Daemon metrics snapshot file (written on daemon exit).")
  in
  let run socket cache_dir clients requests duration_s seed kills p_garbage
      p_disconnect budget_s deadline_s workloads_csv modes_csv mix_plan workers
      cache_max_mb metrics_out =
    let cache_dir =
      match cache_dir with
      | Some d -> d
      | None ->
          let d =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "repro-serveload-%d" (Unix.getpid ()))
          in
          (try Unix.mkdir d 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          d
    in
    let socket =
      if socket <> "" then socket
      else
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "repro-serveload-%d.sock" (Unix.getpid ()))
    in
    let split csv =
      String.split_on_char ',' csv
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let mix =
      let plain =
        List.concat_map
          (fun w ->
            List.map
              (fun m ->
                Serve.Protocol.request ~seed ~workload:w ~mode:m ~size:"quick"
                  ())
              (split modes_csv))
          (split workloads_csv)
      in
      match mix_plan with
      | None -> plain
      | Some p ->
          plain
          @ List.map (fun (r : Serve.Protocol.request) -> { r with plan = p })
              plain
    in
    let journal = Filename.concat cache_dir "serve.journal" in
    let spawn () =
      let args =
        [
          Sys.executable_name; "serve"; "--socket"; socket; "--cache-dir";
          cache_dir; "--journal"; journal; "--workers"; string_of_int workers;
        ]
        @ (match cache_max_mb with
          | Some mb -> [ "--cache-max-mb"; string_of_int mb ]
          | None -> [])
        @
        match metrics_out with
        | Some p -> [ "--metrics-out"; p ]
        | None -> []
      in
      Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
        Unix.stdout Unix.stderr
    in
    let cfg =
      {
        Serve.Load.socket;
        spawn;
        concurrency = clients;
        requests;
        duration_s;
        seed;
        chaos = { Serve.Load.p_garbage; p_disconnect };
        kills;
        request_budget_s = budget_s;
        deadline_s;
        mix;
        log = (fun s -> Printf.eprintf "serveload: %s\n%!" s);
      }
    in
    let r = Serve.Load.run cfg in
    let p50 = Serve.Load.percentile r.Serve.Load.warm_us 50. in
    let p99 = Serve.Load.percentile r.Serve.Load.warm_us 99. in
    Printf.printf
      "serveload: %d slots in %.2fs (%.1f req/s resolved)\n\
      \  warm %d (p50 %dus, p99 %dus)  cold %d  overloaded %d  deadline \
       %d\n\
      \  chaos %d  bad %d  failed %d  hung %d  divergent %d\n\
      \  daemon: %d restart(s), exit %d\n"
      r.Serve.Load.total r.Serve.Load.wall_s
      (Serve.Load.throughput_rps r)
      r.Serve.Load.ok_warm p50 p99 r.Serve.Load.ok_cold
      r.Serve.Load.overloaded r.Serve.Load.deadline r.Serve.Load.chaos
      r.Serve.Load.bad r.Serve.Load.failed r.Serve.Load.unresolved
      r.Serve.Load.divergent r.Serve.Load.restarts r.Serve.Load.daemon_exit;
    if
      r.Serve.Load.unresolved > 0
      || r.Serve.Load.divergent > 0
      || r.Serve.Load.daemon_exit <> 0
    then begin
      Printf.eprintf
        "serveload: FAILED (%d hung, %d divergent, daemon exit %d)\n"
        r.Serve.Load.unresolved r.Serve.Load.divergent
        r.Serve.Load.daemon_exit;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "serveload"
       ~doc:"Deterministic multi-client chaos load harness for repro serve"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Spawns a $(b,repro serve) daemon, then drives it with a \
              seeded fleet of concurrent clients mixing honest cell \
              requests with garbage frames, mid-frame disconnects and \
              scheduled kill -9/restart cycles.  The acceptance bar is \
              zero hung clients: every slot must resolve (cell, \
              Overloaded, deadline, or intentional chaos) within its \
              budget, cells served twice must be byte-identical, and \
              the daemon must drain cleanly at the end.";
         ])
    Term.(
      const run $ socket_arg ~default:"" $ cache_dir_arg $ clients_arg
      $ requests_arg $ duration_arg $ seed_arg $ kill_arg $ p_garbage_arg
      $ p_disconnect_arg $ budget_arg $ deadline_arg $ workloads_mix_arg
      $ modes_mix_arg $ mix_plan_arg $ workers_arg $ cache_max_mb_arg
      $ metrics_out_arg)

let server_cmd =
  let mutators_arg =
    Arg.(
      value & opt int 4
      & info [ "mutators" ] ~docv:"N"
          ~doc:
            "Concurrent mutators time-sliced over the one simulated \
             machine by the deterministic quantum scheduler.")
  in
  let requests_arg =
    Arg.(
      value & opt (some int) None
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "Total requests across all mutators (default: the \
             server-N matrix cell's scaled count).")
  in
  let quantum_arg =
    Arg.(
      value & opt (some int) None
      & info [ "quantum" ] ~docv:"STEPS"
          ~doc:
            "Scheduler base steps per turn; each turn's actual length \
             adds seeded jitter so handoffs don't phase-lock with \
             request boundaries.")
  in
  let seed_arg =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Determinism root: request shapes and the interleaving are \
             a pure function of (seed, quantum, mutators).")
  in
  let no_bump_arg =
    Arg.(
      value & flag
      & info [ "no-bump" ]
          ~doc:
            "Allocate through the legacy region path instead of the \
             per-mutator bump-pointer fast path (addresses are \
             identical either way; only charged instructions differ).")
  in
  let mode_arg =
    Arg.(
      value
      & opt mode_conv (Workloads.Api.Region { safe = true })
      & info [ "mode" ]
          ~doc:"Memory manager: sun, bsd, lea, gc, emu-*, region, unsafe.")
  in
  let run mutators requests quantum seed no_bump mode full metrics =
    let dump_metrics = with_metrics metrics in
    let base =
      Workloads.Workload.server_params mutators (size_of_full full)
    in
    let params =
      {
        base with
        Workloads.Server.requests =
          Option.value ~default:base.Workloads.Server.requests requests;
        quantum = Option.value ~default:base.Workloads.Server.quantum quantum;
        seed = Option.value ~default:base.Workloads.Server.seed seed;
        bump = not no_bump;
      }
    in
    let api = Workloads.Api.create ~with_cache:true mode in
    let o =
      Workloads.Server.run
        ?metrics:(if metrics then Some Obs.Metrics.default else None)
        api params
    in
    let r =
      Workloads.Results.collect api
        ~workload:(Printf.sprintf "server-%d" mutators)
        ~summary:
          (Printf.sprintf "served=%d checksum=%x" o.Workloads.Server.served
             o.Workloads.Server.checksum)
    in
    Printf.printf
      "server: %d mutators, quantum %d, seed %d, %s%s\n\
       served %d  allocs %d (%d KB)  checksum %x\n\
       handoffs %d  interleave %08x\n\
       bump: %d hits, %d opens, %d closes, %d refills (%d contended)\n"
      params.Workloads.Server.mutators params.Workloads.Server.quantum
      params.Workloads.Server.seed
      (Workloads.Api.mode_name mode)
      (if no_bump then " (bump off)" else "")
      o.Workloads.Server.served o.Workloads.Server.allocs
      (o.Workloads.Server.bytes / 1024)
      o.Workloads.Server.checksum o.Workloads.Server.handoffs
      (o.Workloads.Server.interleave_hash land 0xffffffff)
      o.Workloads.Server.bump_stats.Regions.Region.bs_hits
      o.Workloads.Server.bump_stats.Regions.Region.bs_opens
      o.Workloads.Server.bump_stats.Regions.Region.bs_closes
      o.Workloads.Server.bump_stats.Regions.Region.bs_refills
      o.Workloads.Server.bump_stats.Regions.Region.bs_contended_refills;
    Printf.printf "per-mutator: served/allocs/steps/quanta/peak-live-KB\n";
    Array.iteri
      (fun i ms ->
        Printf.printf "  m%d: %d / %d / %d / %d / %d\n" i
          ms.Workloads.Server.ms_served ms.Workloads.Server.ms_allocs
          ms.Workloads.Server.ms_steps ms.Workloads.Server.ms_quanta
          (ms.Workloads.Server.ms_peak_live_bytes / 1024))
      o.Workloads.Server.per_mutator;
    Fmt.pr "%a@." Workloads.Results.pp r;
    dump_metrics ()
  in
  Cmd.v
    (Cmd.info "server"
       ~doc:"Run the multi-mutator server scenario"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "N mutators interleave over the simulated machine under a \
              deterministic weighted round-robin quantum schedule, each \
              serving a request stream with a per-request region \
              lifecycle.  Region modes allocate through the per-mutator \
              bump-pointer fast path unless $(b,--no-bump); allocation \
              addresses are identical either way, so the flag isolates \
              the charged-instruction saving.";
         ])
    Term.(
      const run $ mutators_arg $ requests_arg $ quantum_arg $ seed_arg
      $ no_bump_arg $ mode_arg $ full_arg $ metrics_arg)

let main =
  Cmd.group
    (Cmd.info "repro" ~version:"1.0"
       ~doc:
         "Reproduction of Gay & Aiken, 'Memory Management with Explicit \
          Regions' (PLDI 1998)")
    [
      exp_cmd; run_cmd; trace_cmd; list_cmd; creg_cmd; check_cmd; faults_cmd;
      docs_cmd; record_cmd; replay_cmd; gen_cmd; results_cmd; serve_cmd;
      serveload_cmd; server_cmd;
    ]

let () = exit (Cmd.eval main)
