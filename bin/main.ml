(* repro: command-line driver for the reproduction of "Memory
   Management with Explicit Regions" (Gay & Aiken, PLDI 1998). *)

open Cmdliner

let progress msg =
  Printf.eprintf "  %s\n%!" msg

(* Print to stderr and exit with [code]. *)
let fail code fmt = Printf.kfprintf (fun _ -> exit code) stderr fmt

let size_of_full full = if full then Workloads.Workload.Full else Workloads.Workload.Quick

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Run the full-size benchmark inputs.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run independent matrix cells on $(docv) OCaml domains \
           (default: the runtime's recommended domain count).  Output \
           is byte-identical for every $(docv).")

(* Advisory exclusion on the cell cache: a batch run and a live [repro
   serve] daemon over the same cache directory must not interleave
   writes.  Locks are held for the process lifetime; the OS
   releases them on any exit, including kill -9.  Second acquirers get
   the holder's name instead of silent interleaving. *)
let held_locks : (string, Results.Lockfile.t) Hashtbl.t = Hashtbl.create 4

let acquire_lock path =
  if not (Hashtbl.mem held_locks path) then
    match Results.Lockfile.acquire ~owner:"repro" path with
    | Ok l -> Hashtbl.replace held_locks path l
    | Error msg ->
        fail 2
          "repro: %s\n\
          \  (a `repro serve` daemon or another run owns this store; \
           stop it or pass a different --cache-dir)\n\
           %!"
          msg

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

(* The flags [experiment] and [docs] share: which matrix to build and
   how to fill it. *)
type matrix_flags = {
  full : bool;
  jobs : int option;
  show_progress : bool;
  no_cache : bool;
  refresh : bool;
  cache_dir : string option;
}

let matrix_flags =
  let make full jobs show_progress no_cache refresh cache_dir =
    { full; jobs; show_progress; no_cache; refresh; cache_dir }
  in
  Term.(
    const make $ full_arg $ jobs_arg $ progress_arg $ no_cache_arg
    $ refresh_arg $ cache_dir_arg)

let cell_progress (t : Harness.Matrix.cell_timing) ~cycles =
  Printf.eprintf "  done %-16s %-8s %12d cycles %8.1f ms\n%!" t.workload
    t.mode cycles (t.wall_s *. 1000.)

(* Create the matrix [f] describes and, with [fill], compute every cell.
   Failed cells end the command [cmd] with a structured summary instead
   of a crashed harness: the surviving cells are in the cell cache, so
   re-running the same command computes only the failed ones. *)
let matrix ?trace_dir ?replay ~fill ~cmd f =
  let disk =
    if f.no_cache then None
    else begin
      let d = Results.Cache.create ?dir:f.cache_dir () in
      acquire_lock (Filename.concat (Results.Cache.dir d) "LOCK");
      Some d
    end
  in
  let m =
    Harness.Matrix.create ~progress ?trace_dir ?disk ~refresh:f.refresh
      ?replay (size_of_full f.full)
  in
  (if fill then
     let on_cell = if f.show_progress then Some cell_progress else None in
     match Harness.Matrix.run_all ?domains:f.jobs ?on_cell m with
     | _ -> ()
     | exception Harness.Matrix.Cells_failed failures ->
         Printf.eprintf "%s: %d cell(s) FAILED\n" cmd (List.length failures);
         List.iter
           (fun c -> Fmt.epr "  %a@." Harness.Matrix.pp_cell_failure c)
           failures;
         Printf.eprintf "  (report skipped: it would be incomplete)\n%!";
         exit 1);
  m

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"DIR"
        ~doc:
          "Also write each executed cell's trace artefacts (Chrome JSON \
           timeline, heap time-series CSV, site tables, folded stacks, \
           binary event stream) under $(docv).  Tracing is pure \
           observation: simulated counts are those of an untraced run, \
           and $(b,experiment)'s report is byte-identical.")

(* One report section under its title: the generated block of the same
   id, byte for byte. *)
let print_section m (s : Harness.Docs.section) =
  Printf.printf "## %s\n\n%s\n" s.title (Harness.Docs.render_section m s)

let exp_cmd =
  let name_arg =
    let sections =
      List.map (fun (s : Harness.Docs.section) -> (s.id, Some s)) Harness.Docs.sections
    in
    Arg.(
      required
      & pos 0 (some (enum (sections @ [ ("all", None) ]))) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:(String.concat ", " (List.map fst sections) ^ ", or all"))
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
  let print (experiment : Harness.Docs.section option) f trace_dir replay =
    let m =
      matrix ?trace_dir ~replay ~fill:(Option.is_none experiment)
        ~cmd:"experiment all" f
    in
    match experiment with
    | None ->
        List.iteri
          (fun i s ->
            if i > 0 then print_newline ();
            print_section m s)
          Harness.Docs.sections;
        report_cache_stats m
    | Some ({ render = `Static _; _ } as s) -> print_section m s
    | Some s ->
        print_section m s;
        report_cache_stats m
  in
  let run experiment f trace_dir replay =
    if replay && trace_dir <> None then
      `Error (true, "--replay cannot combine with --trace")
    else `Ok (print experiment f trace_dir replay)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure from the paper")
    Term.(
      ret
        (const run $ name_arg $ matrix_flags $ trace_arg $ replay_arg))

let parse_workload s =
  match Workloads.Workload.find s with
  | spec -> Ok spec
  | exception Invalid_argument msg -> Error msg

let workload_conv =
  let parse s = Result.map_error (fun msg -> `Msg msg) (parse_workload s) in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf s.Workloads.Workload.name)

let workload_arg =
  let names = Workloads.Workload.(List.map (fun s -> s.name) (all @ extras)) in
  Arg.(
    required
    & pos 0 (some workload_conv) None
    & info [] ~docv:"WORKLOAD" ~doc:(String.concat ", " names))

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

let mode_doc = "Memory manager: sun, bsd, lea, gc, emu-*, region, unsafe."

(* MODE, the positional argument at [n]: the one spelling of a memory
   manager. *)
let mode_arg n =
  Arg.(
    value
    & pos n mode_conv (Workloads.Api.Region { safe = true })
    & info [] ~docv:"MODE" ~doc:mode_doc)

(* MODE at [n] for a command that may go without one. *)
let mode_opt_arg n ~doc =
  Arg.(value & pos n (some mode_conv) None & info [] ~docv:"MODE" ~doc)

(* [f ()] for a runnable (workload, mode) cell; any other is a usage
   error, returned before [f] creates any file. *)
let with_cell spec mode f =
  match Workloads.Workload.check_cell spec mode with
  | Ok () -> `Ok (f ())
  | Error msg -> `Error (true, msg)

let run_cmd =
  let run spec mode trace_dir full =
    let size = size_of_full full in
    with_cell spec mode @@ fun () ->
    match trace_dir with
    | None ->
        Fmt.pr "%a@." Workloads.Results.pp
          (Workloads.Workload.run_collect spec mode size)
    | Some out ->
        let r, tracer, files =
          Harness.Tracefiles.run_traced ~out spec mode size
        in
        Fmt.pr "%a@.@." Workloads.Results.pp r;
        print_string (Obs.Export.site_table ~top:10 tracer);
        Printf.printf
          "\n%d events (%d sampled intervals) -> %s\n\
          \  timeline : %s  (load in Perfetto / chrome://tracing)\n\
          \  heap     : %s\n\
          \  sites    : %s\n\
          \  flame    : %s  (flamegraph.pl / inferno-flamegraph)\n\
          \  raw      : %s\n"
          (Obs.Tracer.events tracer)
          (Obs.Sampler.length (Obs.Tracer.sampler tracer))
          files.Harness.Tracefiles.dir files.Harness.Tracefiles.trace_json
          files.Harness.Tracefiles.heap_csv files.Harness.Tracefiles.sites_txt
          files.Harness.Tracefiles.folded files.Harness.Tracefiles.events_bin
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one memory manager"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs a single (workload, mode) cell and prints its \
              measurements.  With $(b,--trace DIR) the observability layer \
              is on: the command also prints the top allocation sites and \
              leaves five artefacts under DIR: a Chrome trace_event JSON \
              timeline (phases, allocations, region and GC events, counter \
              tracks), a heap/stall time-series CSV, the per-site \
              attribution table, a folded-stack file for flame graphs, and \
              the raw binary event stream.  Simulated counts are identical \
              to an untraced run: observation never perturbs measurement.";
         ])
    Term.(ret (const run $ workload_arg $ mode_arg 1 $ trace_arg $ full_arg))

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
    let error kind msg (pos : Creg.Ast.pos) =
      fail 2 "%s error at %d:%d: %s\n" kind pos.line pos.col msg
    in
    match
      if dump then `Dump (Creg.Compile.compile src)
      else `Run (Creg.Vm.run_source ~safe:(not unsafe) src)
    with
    | `Dump prog ->
        Array.iter (fun f -> Fmt.pr "%a@." Creg.Bytecode.pp_func f) prog.Creg.Bytecode.bp_funcs
    | `Run (outcome, lib) ->
        List.iter (fun v -> Printf.printf "%d\n" v) outcome.Creg.Vm.output;
        let c = Sim.Cost.cycles (Sim.Memory.cost (Regions.Region.memory lib)) in
        Printf.eprintf "exit value: %d (%d simulated cycles)\n"
          outcome.Creg.Vm.exit_value c
    | exception Creg.Vm.Fault msg -> fail 2 "runtime fault: %s\n" msg
    | exception Creg.Typecheck.Error (msg, pos) -> error "type" msg pos
    | exception Creg.Parser.Error (msg, pos) -> error "syntax" msg pos
    | exception Creg.Lexer.Error (msg, pos) -> error "lexical" msg pos
  in
  Cmd.v
    (Cmd.info "creg" ~doc:"Compile and run a creg (C@-like) program on the safe region runtime")
    Term.(const run $ file_arg $ unsafe_arg $ dump_arg)

let faults_cmd =
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
  let run_plan spec mode all_modes plan full quarantine =
    let graceful mode =
      let o = Harness.Faultrun.run ~plan spec mode (size_of_full full) in
      Fmt.pr "%a@.@." Harness.Faultrun.pp_outcome o;
      let ok = Harness.Faultrun.graceful o in
      if not ok then
        Option.iter
          (fun dir ->
            let last_error =
              match o.Harness.Faultrun.status with
              | Harness.Faultrun.Crashed s -> "crashed: " ^ s
              | _ -> "heap check failed after fault plan"
            in
            Option.iter
              (Printf.eprintf "  triage bundle: %s\n%!")
              (Harness.Triage.write_bundle ~dir
                 ~workload:spec.Workloads.Workload.name
                 ~mode:(Workloads.Api.mode_name mode) ~last_error ~plan
                 ~retrace:(spec, mode, size_of_full full)))
          quarantine;
      ok
    in
    let check modes () =
      if not (List.for_all Fun.id (List.map graceful modes)) then exit 1
    in
    match (all_modes, mode) with
    | true, Some _ -> `Error (true, "--all-modes takes no MODE")
    | true, None -> `Ok (check (Workloads.Workload.modes_for spec) ())
    | false, mode ->
        let mode = Option.value mode ~default:(Workloads.Api.Region { safe = true }) in
        with_cell spec mode (check [ mode ])
  in
  let run spec mode all_modes plan_spec seed full quarantine =
    match Fault.Plan.of_string ~seed plan_spec with
    | Error msg -> `Error (true, "bad --plan: " ^ msg)
    | Ok plan -> run_plan spec mode all_modes plan full quarantine
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
      ret
        (const run $ workload_arg
       $ mode_opt_arg 1
           ~doc:(mode_doc ^ "  Default: region; none with --all-modes.")
       $ all_modes_arg $ plan_arg
       $ seed_arg $ full_arg $ quarantine_arg))

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
  let drift_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "drift-dir" ] ~docv:"DIR"
          ~doc:
            "On --check failure, also write the regenerated document and \
             results under $(docv) so CI can upload them as an artifact.")
  in
  let run check drift_dir f =
    let doc = "EXPERIMENTS.md"
    and golden =
      if f.full then "results/golden-full.json"
      else "results/golden-quick.json"
    in
    let m = matrix ~fill:true ~cmd:"docs" f in
    (* The document's generated blocks are quick-run renders, so at full
       size only the golden store is gated (the cron CI job): rendering
       the doc from a full matrix would "drift" it by construction. *)
    let document =
      if f.full then None
      else
        let current =
          try Harness.Docs.read_file doc
          with Sys_error msg -> fail 2 "docs: cannot read %s: %s\n" doc msg
        in
        match Harness.Docs.regenerate m current with
        | Error msg -> fail 2 "docs: %s: %s\n" doc msg
        | Ok regenerated -> Some (current, regenerated)
    in
    let fresh = Harness.Matrix.store m in
    report_cache_stats m;
    let doc_name =
      Option.map
        (fun (current, _) ->
          Printf.sprintf "%s (%d generated blocks)" doc
            (List.length (Harness.Docs.block_ids current)))
        document
    and golden_name =
      Printf.sprintf "%s (%d cells)" golden (Results.Store.length fresh)
    in
    let names =
      String.concat " and " (Option.to_list doc_name @ [ golden_name ])
    in
    (* Every gated output, in place or (for CI's artifact) under [dir].
       [false] if the golden already held every measurement and was
       left as it was: a new build id alone does not rewrite it. *)
    let write ?dir () =
      let path p =
        Option.fold dir ~none:p ~some:(fun d ->
            Filename.concat d (Filename.basename p))
      in
      Option.iter
        (fun (_, regenerated) ->
          Harness.Tracefiles.write_file (path doc) regenerated)
        document;
      Harness.Docs.write_golden (path golden) fresh
    in
    if not check then
      if write () then Printf.printf "docs: wrote %s\n" names
      else
        Printf.printf "docs: wrote %s; %s unchanged (no measurement moved)\n"
          (Option.value doc_name ~default:"nothing")
          golden_name
    else
      let doc_drift =
        match document with
        | Some (current, regenerated) ->
            Harness.Docs.drift ~label:doc ~current ~regenerated
        | None -> []
      in
      let golden_drift =
        match Results.Store.load golden with
        | Error msg -> [ msg ]
        | Ok expected -> Results.Store.diff ~expected ~actual:fresh
      in
      match doc_drift @ List.map (Printf.sprintf "%s: %s" golden) golden_drift with
      | [] ->
          Printf.printf "docs: %s %s up to date\n" names
            (if document = None then "is" else "are")
      | lines ->
          Printf.eprintf "docs: committed outputs disagree with regeneration:\n";
          List.iter (fun l -> Printf.eprintf "%s\n" l) lines;
          Option.iter
            (fun dir ->
              Harness.Tracefiles.mkdir_p dir;
              ignore (write ~dir () : bool);
              Printf.eprintf "docs: regenerated copies under %s/\n" dir)
            drift_dir;
          fail 1 "docs: run `repro docs%s` and commit the result\n%!"
            (if f.full then " --full" else "")
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
              $(b,<!-- generated:ID -->) block of EXPERIMENTS.md from the \
              measured results, together with the machine-readable golden \
              results/golden-quick.json carrying full provenance (build id, \
              seed, fault plan) per cell; golden comparisons ignore \
              provenance, since build ids legitimately differ between \
              builds.  With $(b,--check), nothing is written: the \
              command exits non-zero with a line diff if the committed \
              document or golden file disagrees with fresh measurements — \
              the CI docs gate.  With $(b,--full), the full-size matrix is \
              run and only the golden store (results/golden-full.json) is \
              written or checked: the document's blocks stay quick-run \
              renders (this is the scheduled full-size CI gate).";
         ])
    Term.(
      const run $ check_arg $ drift_dir_arg $ matrix_flags)

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

(* [f] over an open reader of [path].  A trace that fails to open,
   decodes corrupt, diverges or cannot serve the requested column is bad
   input: reported against the file as [cmd: path: ...], exit 2. *)
let with_reader ~cmd path f =
  let bad msg = fail 2 "%s: %s: %s\n" cmd path msg in
  match Trace.Format.open_file path with
  | Error msg -> bad msg
  | Ok rd -> (
      match
        Fun.protect ~finally:(fun () -> Trace.Format.close rd) (fun () -> f rd)
      with
      | v -> v
      | exception
          ( Trace.Format.Corrupt msg
          | Trace.Replay.Divergence msg
          | Invalid_argument msg ) ->
          bad msg)

let print_trace_stats ~cmd path =
  with_reader ~cmd path (fun rd ->
      let hdr = Trace.Format.header rd in
      Printf.printf
        "%s: %s/%s under %s (%s), %d records, %d objects, %d regions, %d \
         bytes\n"
        path hdr.Trace.Format.workload hdr.Trace.Format.variant
        hdr.Trace.Format.mode hdr.Trace.Format.size (Trace.Format.records rd)
        (Trace.Format.objects rd) (Trace.Format.regions rd)
        (Unix.stat path).Unix.st_size)

let record_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Trace file (default: WORKLOAD-VARIANT-SIZE.trace).")
  in
  let run spec variant out full =
    let name = spec.Workloads.Workload.name in
    let variants = Trace.Record.variants_for spec in
    let variant = Option.value variant ~default:(List.hd variants) in
    if not (List.mem variant variants) then
      `Error
        ( true,
          Printf.sprintf "%s has no %s trace (its traces: %s)" name variant
            (String.concat ", " variants) )
    else begin
      let out =
        match out with
        | Some p -> p
        | None ->
            Printf.sprintf "%s-%s-%s.trace" name variant
              (if full then "full" else "quick")
      in
      let r = Trace.Record.record ~out ~variant spec (size_of_full full) in
      Printf.printf "recorded %s under %s: %s\n" name
        (Workloads.Api.mode_name (Trace.Record.recording_mode variant))
        r.Workloads.Results.summary;
      `Ok (print_trace_stats ~cmd:"record" out)
    end
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
    Term.(ret (const run $ workload_arg $ variant_arg $ out_arg $ full_arg))

let replay_cmd =
  let target_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "Trace file to replay ($(b,repro record), $(b,repro gen)).  \
             Under $(b,--verify), the WORKLOAD whose matrix cells to check \
             instead (default: every workload).")
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
  let timeline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"DIR"
          ~doc:
            "Attach a heap-timeline profiler to the replay and write one \
             $(b,MODE.csv) per replayed column into DIR (memory curves \
             over the allocation-event clock at bounded profiling \
             memory).  With no MODE, every column the trace's variant \
             serves is replayed.")
  in
  let verify workload jobs full =
    let checked, diffs =
      Harness.Replaycheck.verify ?workload ?domains:jobs ~progress
        (size_of_full full)
    in
    if diffs = [] then
      Printf.printf
        "replay verify: %d cells, every allocator-side measurement \
         count-equivalent\n"
        checked
    else begin
      Printf.printf "replay verify: %d divergence(s) over %d cells:\n"
        (List.length diffs) checked;
      List.iter (fun d -> Fmt.pr "  %a@." Harness.Replaycheck.pp_diff d) diffs
    end;
    diffs = []
  in
  let replay_one ?timeline path mode =
    with_reader ~cmd:"replay" path (fun rd ->
        Trace.Replay.run ?timeline rd mode)
  in
  let write_timeline dir mode tl =
    Harness.Tracefiles.mkdir_p dir;
    let out = Filename.concat dir (Workloads.Api.mode_name mode ^ ".csv") in
    Harness.Tracefiles.write_file out (Obs.Timeline.to_csv tl);
    Printf.printf "timeline: %s (%d samples @ every %d events)\n" out
      (Obs.Timeline.length tl)
      (Obs.Timeline.interval tl)
  in
  let replay_column path mode dir =
    let timeline = Option.map (fun dir -> (dir, Obs.Timeline.create ())) dir in
    let r = replay_one ?timeline:(Option.map snd timeline) path mode in
    Option.iter (fun (dir, tl) -> write_timeline dir mode tl) timeline;
    Fmt.pr "%a@." Workloads.Results.pp r
  in
  (* Every column the trace's variant serves, each profiled. *)
  let replay_columns path dir =
    let variant =
      with_reader ~cmd:"replay" path (fun rd ->
          (Trace.Format.header rd).Trace.Format.variant)
    in
    List.iter
      (fun mode ->
        if Trace.Record.variant_of_mode mode = variant then begin
          let tl = Obs.Timeline.create () in
          let r = replay_one ~timeline:tl path mode in
          Printf.printf "%-16s %s\n"
            (Workloads.Api.mode_name mode)
            r.Workloads.Results.summary;
          write_timeline dir mode tl
        end)
      Workloads.Api.all_modes
  in
  (* A positional argument or option that this invocation would
     ignore is a usage error, returned before any file exists. *)
  let run target mode verify_flag timeline_dir jobs full =
    let verified ok = if not ok then exit 1 in
    match (verify_flag, target, mode, timeline_dir) with
    | true, _, Some _, _ -> `Error (true, "--verify takes no MODE")
    | true, _, _, Some _ -> `Error (true, "--timeline does not combine with --verify")
    | true, Some w, None, None -> (
        match parse_workload w with
        | Error msg -> `Error (true, msg)
        | Ok spec
          when not
                 (List.exists
                    (fun (s, _) -> s == spec)
                    (Harness.Matrix.report_cells ())) ->
            `Error (true, w ^ " has no matrix cell to verify")
        | Ok _ -> `Ok (verified (verify (Some w) jobs full)))
    | true, None, None, None -> `Ok (verified (verify None jobs full))
    | false, _, _, _ when full || jobs <> None ->
        `Error (true, "--full and -j apply only to --verify")
    | false, None, _, _ -> `Error (true, "TRACE is required without --verify")
    | false, Some path, _, _ when not (Sys.file_exists path) ->
        `Error (true, "no trace file " ^ path)
    | false, Some path, Some mode, dir -> `Ok (replay_column path mode dir)
    | false, Some path, None, Some dir -> `Ok (replay_columns path dir)
    | false, Some _, None, None ->
        `Error
          ( true,
            "MODE is required without --timeline DIR (which profiles every \
             column the trace serves)" )
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a recorded allocation trace against an allocator column"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Drives the requested memory manager from a recorded or \
              generated allocation trace, skipping the mutator compute \
              that produced it.  Allocator-side measurements (allocation, \
              refcount, stack-scan and cleanup instructions, OS bytes, \
              requested stats, region summaries) are count-equivalent to \
              full execution; mutator-side cycles and stalls are not \
              reproduced.  $(b,--verify) proves the equivalence \
              empirically, cell by cell.  $(b,--timeline DIR) attaches \
              the bounded-memory heap profiler and writes one CSV per \
              replayed column.";
         ])
    Term.(
      ret
        (const run $ target_arg
       $ mode_opt_arg 1 ~doc:"Memory manager column to replay against."
       $ verify_arg $ timeline_arg $ jobs_arg $ full_arg))

let gen_cmd =
  let spec_arg =
    Arg.(
      value
      & opt string ""
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:
            "Full generator spec as one comma-separated $(b,key=value) \
             string (the canonical form printed in the trace header).  \
             Keys: $(b,n); $(b,variant): $(b,malloc) (serves the heap \
             columns: sun/bsd/lea/gc) or $(b,region) (safe/unsafe \
             regions); $(b,size): $(b,table2), $(b,uniform:LO:HI) or \
             $(b,heavy:LO:CAP); $(b,life): $(b,lifo:BATCH) \
             (region-friendly), $(b,exp:MEAN) or $(b,long:PCT:MEAN) (PCT% \
             immortal); $(b,stores) (pointer stores per allocation); \
             $(b,seed).  Omitted keys default to \
             n=1000000,variant=malloc,size=table2,life=lifo:256,stores=1,seed=1.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the trace here unconditionally.  Default: the \
             content-addressed cache slot, reused if already generated; a \
             cache directory that cannot be written is an error (exit 2).")
  in
  let run spec out cache_dir =
    let p =
      match Trace.Gen.of_string spec with
      | Ok p -> p
      | Error msg -> fail 2 "gen: bad --spec: %s\n" msg
    in
    let path =
      match out with
      | Some out ->
          progress (Printf.sprintf "generating %s ..." (Trace.Gen.to_string p));
          Trace.Gen.generate ~out p;
          out
      | None ->
          let cache = Results.Cache.create ?dir:cache_dir () in
          if not (Results.Cache.writable cache) then
            fail 2 "gen: %s: not a writable cache directory (or pass -o FILE)\n"
              (Results.Cache.dir cache);
          Trace.Gen.ensure ~cache ~progress p
    in
    print_trace_stats ~cmd:"gen" path
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
              replay columns ($(b,repro replay TRACE MODE)) can be \
              driven at object counts the full matrix cannot reach.  \
              Generation is deterministic: the same spec yields \
              byte-identical traces on every host, so by default the \
              trace lands in the content-addressed cache and is reused.  \
              Generated traces mark their trailer with the recycled-ids \
              flag; replay memory then scales with the peak $(i,live) \
              object count, not the trace length.";
         ])
    Term.(
      const run $ spec_arg $ out_arg $ cache_dir_arg)

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
      | Error msg -> fail 2 "results compare: %s: %s\n" path msg
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
  let run socket cache_dir journal workers max_clients max_queue timeout_s
      retries write_timeout_s cache_max_mb drain_timeout_s =
    let cache_dir =
      Option.value cache_dir ~default:(Results.Cache.default_dir ())
    in
    let journal =
      Option.value journal ~default:(Filename.concat cache_dir "serve.journal")
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
        log = (fun s -> Printf.eprintf "serve: %s\n%!" s);
      }
    in
    match Serve.Daemon.run cfg with
    | Ok () -> ()
    | Error msg -> fail 2 "serve: %s\n" msg
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
              worker-domain pool through the batch driver's attempt loop \
              (watchdog, transient-only retries), with an fsync'd journal.  \
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
      $ drain_timeout_arg)

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
  let run socket cache_dir clients requests duration_s seed kills p_garbage
      p_disconnect budget_s deadline_s workloads_csv modes_csv mix_plan workers
      cache_max_mb =
    (* Defaults are per-process names in the temp directory. *)
    let scratch =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "repro-serveload-%d" (Unix.getpid ()))
    in
    let cache_dir =
      match cache_dir with
      | Some d -> d
      | None ->
          Harness.Tracefiles.mkdir_p scratch;
          scratch
    in
    let socket = if socket <> "" then socket else scratch ^ ".sock" in
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
        @
        match cache_max_mb with
        | Some mb -> [ "--cache-max-mb"; string_of_int mb ]
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
      $ modes_mix_arg $ mix_plan_arg $ workers_arg $ cache_max_mb_arg)

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
  let run mutators requests quantum seed no_bump mode full =
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
    let o = Workloads.Server.run api params in
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
    Fmt.pr "%a@." Workloads.Results.pp r
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
      $ no_bump_arg $ mode_arg 0 $ full_arg)

let main =
  Cmd.group
    (Cmd.info "repro" ~version:"1.0"
       ~doc:
         "Reproduction of Gay & Aiken, 'Memory Management with Explicit \
          Regions' (PLDI 1998)")
    [
      exp_cmd; run_cmd; list_cmd; creg_cmd; check_cmd; faults_cmd;
      docs_cmd; record_cmd; replay_cmd; gen_cmd; results_cmd; serve_cmd;
      serveload_cmd; server_cmd;
    ]

let () = exit (Cmd.eval main)
