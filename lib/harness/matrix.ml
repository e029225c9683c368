(* One recorded trace per (workload, trace variant), shared by every
   column the variant serves.  The entry lock serialises recording
   (record once, even with worker domains racing for the same trace);
   [recorded] memoises the recording run's results, because that run
   doubles as the recording mode's full-execution cell. *)
type trace_entry = {
  tlock : Mutex.t;
  mutable tpath : string option;
  mutable recorded : Workloads.Results.t option;
}

type t = {
  size : Workloads.Workload.size;
  progress : string -> unit;
  cache : (string * string, Workloads.Results.t) Hashtbl.t;
  trace_dir : string option;
  disk : Results.Cache.t option;
  refresh : bool;
  seed : int;
  plan : (Fault.Plan.t * string) option;
  replay : bool;
  traces : (string * string, trace_entry) Hashtbl.t;
  traces_lock : Mutex.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(progress = ignore) ?trace_dir ?disk ?(refresh = false) ?(seed = 0)
    ?plan ?(replay = false) size =
  (match (plan, trace_dir, replay) with
  | Some _, _, true ->
      invalid_arg "Matrix.create: a fault plan cannot combine with replay"
  | Some _, Some _, _ ->
      invalid_arg "Matrix.create: a fault plan cannot combine with tracing"
  | _, Some _, true ->
      invalid_arg "Matrix.create: replay cannot combine with tracing"
  | _ -> ());
  {
    size;
    progress;
    cache = Hashtbl.create 64;
    trace_dir;
    disk;
    refresh;
    seed;
    plan;
    replay;
    traces = Hashtbl.create 16;
    traces_lock = Mutex.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let size t = t.size

let size_name t =
  match t.size with Workloads.Workload.Quick -> "quick" | Full -> "full"

let cache_stats t = (Atomic.get t.hits, Atomic.get t.misses)
let disk_cache t = t.disk

let build_id t =
  match t.disk with
  | Some d -> Results.Cache.build_id d
  | None -> Results.Cache.current_build_id ()

let plan_string t = match t.plan with None -> "none" | Some (_, s) -> s

(* Whether this mode is the one a trace variant records under — its
   cell is a genuine full execution even in replay mode. *)
let is_recording_mode mode =
  Workloads.Api.mode_name
    (Trace.Record.recording_mode (Trace.Record.variant_of_mode mode))
  = Workloads.Api.mode_name mode

(* A replayed cell's provenance says so: its mutator-side numbers are
   not those of a full run, and it must never be served where a full
   cell was asked for (or vice versa). *)
let replay_plan = "replay"

let replayed_column ~mode =
  match
    List.find_opt
      (fun m -> Workloads.Api.mode_name m = mode)
      Workloads.Api.all_modes
  with
  | Some m -> not (is_recording_mode m)
  | None -> false

let cell_plan t ~mode_name =
  if t.replay && replayed_column ~mode:mode_name then replay_plan
  else plan_string t

let cell_of_result ?plan t r =
  let plan =
    match plan with
    | Some p -> p
    | None -> cell_plan t ~mode_name:r.Workloads.Results.mode
  in
  Results.Cell.make ~size:(size_name t) ~build_id:(build_id t) ~seed:t.seed
    ~plan r

(* The cell cached under [plan] in the disk cache, or [compute ()]
   stored there.  A traced cell is always executed (the artefact
   family must be produced), never served from the disk cache; its
   result is still stored, because traced and untraced measurements
   are identical by construction. *)
let cached t spec mode ~plan compute =
  match t.disk with
  | None -> compute ()
  | Some disk -> (
      let lookup =
        if t.refresh || t.trace_dir <> None then None
        else
          Results.Cache.find disk ~workload:spec.Workloads.Workload.name
            ~mode:(Workloads.Api.mode_name mode) ~size:(size_name t)
            ~seed:t.seed ~plan
      in
      match lookup with
      | Some c ->
          Atomic.incr t.hits;
          c.Results.Cell.result
      | None ->
          Atomic.incr t.misses;
          let r = compute () in
          Results.Cache.store disk (cell_of_result ~plan t r);
          r)

(* Full execution of one cell (no replay).  Tracing is pure
   observation (the test suite proves simulated counts are identical
   with it on), so traced cells yield the same results — and
   byte-identical reports.  A fault plan is part of the cell's cache
   address, so planned and plain cells never collide. *)
let execute_cell t spec mode =
  match t.trace_dir with
  | Some dir ->
      let r, _, _ = Tracefiles.run_traced ~out:dir spec mode t.size in
      r
  | None ->
      Workloads.Workload.(
        collect (run ?plan:(Option.map fst t.plan) spec mode t.size))

(* ---- record-once / replay-per-column ------------------------------ *)

(* Without a cell cache a trace is a temp file that lives as long as
   the process: any later cell of this matrix may still replay it. *)
let trace_slot t spec variant =
  match t.disk with
  | Some disk ->
      Results.Cache.trace_path disk ~workload:spec.Workloads.Workload.name
        ~variant ~size:(size_name t) ~seed:t.seed
  | None ->
      let path = Filename.temp_file "repro-trace" ".trace" in
      at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
      path

(* The committed trace for (workload, variant), recording it on first
   demand.  A pre-existing disk slot is reused only if its envelope
   validates (the content address already pins build id, workload,
   variant, size and seed) — a torn file from a killed process is
   silently re-recorded. *)
let ensure_trace t spec variant =
  let name = spec.Workloads.Workload.name in
  let entry =
    Mutex.lock t.traces_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.traces_lock)
      (fun () ->
        match Hashtbl.find_opt t.traces (name, variant) with
        | Some e -> e
        | None ->
            let e = { tlock = Mutex.create (); tpath = None; recorded = None } in
            Hashtbl.add t.traces (name, variant) e;
            e)
  in
  Mutex.lock entry.tlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock entry.tlock)
    (fun () ->
      match entry.tpath with
      | Some p -> (p, entry.recorded)
      | None ->
          let path = trace_slot t spec variant in
          let reusable =
            t.disk <> None && (not t.refresh) && Sys.file_exists path
            &&
            match Trace.Format.open_file path with
            | Ok rd ->
                let hdr = Trace.Format.header rd in
                Trace.Format.close rd;
                hdr.Trace.Format.workload = name
                && hdr.Trace.Format.variant = variant
            | Error _ -> false
          in
          if not reusable then begin
            t.progress (Fmt.str "recording %s (%s trace) ..." name variant);
            entry.recorded <-
              Some (Trace.Record.record ~out:path ~seed:t.seed ~variant spec t.size)
          end;
          entry.tpath <- Some path;
          (path, entry.recorded))

(* Does any *other* report cell of this workload replay from this
   trace variant?  The six benchmarks run every column, so both their
   variants always have consumers; an extra spec (moss-slow) appears
   in the report under a single mode, so recording it would produce a
   trace nothing replays — pure overhead over the plain run the
   recording doubles as. *)
let trace_has_consumers (spec : Workloads.Workload.spec) mode variant =
  List.exists
    (fun (s : Workloads.Workload.spec) -> s.name = spec.name)
    Workloads.Workload.all
  && List.exists
       (fun m ->
         Workloads.Api.mode_name m <> Workloads.Api.mode_name mode
         && Trace.Record.variant_of_mode m = variant)
       (Workloads.Workload.modes_for spec)

(* Replay-mode cell: the recording mode's cell is the recording run
   itself (a genuine full execution, cached under the plain address);
   every other column replays the variant's trace, cached under the
   [replay] plan. *)
let replay_cell t spec mode =
  let variant = Trace.Record.variant_of_mode mode in
  if is_recording_mode mode then
    cached t spec mode ~plan:(plan_string t) (fun () ->
        let recorded =
          if trace_has_consumers spec mode variant then
            snd (ensure_trace t spec variant)
          else None
        in
        (* [None] also when the trace survived from an earlier process
           but its recording cell did not: run the cell normally *)
        match recorded with Some r -> r | None -> execute_cell t spec mode)
  else
    cached t spec mode ~plan:replay_plan (fun () ->
        let path, _ = ensure_trace t spec variant in
        let reader =
          match Trace.Format.open_file path with
          | Ok rd -> rd
          | Error msg ->
              Fmt.failwith "unreadable trace for %s/%s: %s"
                spec.Workloads.Workload.name variant msg
        in
        Fun.protect
          ~finally:(fun () -> Trace.Format.close reader)
          (fun () -> Trace.Replay.run reader mode))

let plain_cell t spec mode =
  cached t spec mode ~plan:(plan_string t) (fun () -> execute_cell t spec mode)

let cell t spec mode =
  if t.replay then replay_cell t spec mode else plain_cell t spec mode

(* A replayed cell holds a trace reader open for its whole run, which a
   watchdog could only abandon, never close: the daemon's entry takes
   plain matrices only. *)
let run_cell_collect t spec mode =
  if t.replay then
    invalid_arg "Matrix.run_cell_collect: a replay matrix (use run_replay_cell)";
  plain_cell t spec mode

let run_replay_cell t spec mode =
  if not t.replay then
    invalid_arg "Matrix.run_replay_cell: not a replay matrix";
  cell t spec mode

let get t (spec : Workloads.Workload.spec) mode =
  let key = (spec.Workloads.Workload.name, Workloads.Api.mode_name mode) in
  match Hashtbl.find_opt t.cache key with
  | Some r -> r
  | None ->
      t.progress
        (Fmt.str "running %s under %s ..." spec.Workloads.Workload.name
           (Workloads.Api.mode_name mode));
      let r = cell t spec mode in
      Hashtbl.replace t.cache key r;
      r

let workloads = Workloads.Workload.all

(* ------------------------------------------------------------------ *)
(* Parallel prefill.  Every cell of the evaluation matrix is fully
   independent — its own simulated memory, cost accounting, cache and
   deterministic RNG — so the cells can run on separate OCaml domains.
   Results land in the same memo cache; because each cell's simulation
   is deterministic and rendering happens sequentially afterwards from
   the cache, report output is byte-identical to a sequential run. *)

type cell_timing = { workload : string; mode : string; wall_s : float }

(* Work-stealing loop shared by [run_all] and the tests.  Exceptions
   are hardened: a failing body sets an abort flag (so the other
   workers stop picking up new indices), every domain is joined, and
   only then is the lowest-index failure re-raised with its original
   backtrace — a crash in one cell can neither hang the pool nor leak
   running domains. *)
let parallel_for ~domains n f =
  let domains = max 1 (min domains n) in
  if domains <= 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    let next = Atomic.make 0 in
    let errors = Array.make n None in
    let failed = Atomic.make false in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && not (Atomic.get failed) then begin
          (try f i
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             errors.(i) <- Some (e, bt);
             Atomic.set failed true);
          loop ()
        end
      in
      loop ()
    in
    let helpers = Array.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errors
  end

let report_cells () =
  List.concat_map
    (fun (spec : Workloads.Workload.spec) ->
      List.map
        (fun mode -> (spec, mode))
        (Workloads.Workload.modes_for spec))
    workloads
  @ [ (Workloads.Workload.moss_slow, Workloads.Api.Region { safe = true }) ]

(* Snapshot of everything memoised so far as provenance-carrying
   cells, in report order (then any extras, sorted) — the machine-
   readable form behind `repro docs` and the golden gate. *)
let store t =
  let s = Results.Store.create () in
  List.iter
    (fun ((spec : Workloads.Workload.spec), mode) ->
      match
        Hashtbl.find_opt t.cache
          (spec.Workloads.Workload.name, Workloads.Api.mode_name mode)
      with
      | Some r -> Results.Store.add s (cell_of_result t r)
      | None -> ())
    (report_cells ());
  Hashtbl.fold (fun k r acc -> (k, r) :: acc) t.cache []
  |> List.sort compare
  |> List.iter (fun ((w, m), r) ->
         if not (Results.Store.mem s ~workload:w ~mode:m) then
           Results.Store.add s (cell_of_result t r));
  s

(* ------------------------------------------------------------------ *)
(* Failures.  Every cell is a deterministic simulation, so a failed
   cell fails the same way each time: [run_all] runs each cell once.  A
   cell that fails never brings the other cells down: they finish, are
   memoised (and stored in the disk cache), and the failures are raised
   together at the end.  The serve daemon runs its cells through
   [run_attempts] instead: a watchdog, and retries of transient host
   failures. *)

exception Cell_timeout of float
exception Attempt_cancelled

type cell_failure = { workload : string; mode : string; last_error : string }

exception Cells_failed of cell_failure list

let pp_cell_failure ppf f =
  Fmt.pf ppf "%-10s %-12s %s" f.workload f.mode f.last_error

let () =
  Printexc.register_printer (function
    | Cell_timeout s -> Some (Fmt.str "cell exceeded its %.1fs watchdog" s)
    | Attempt_cancelled -> Some "attempt abandoned by its supervisor"
    | Cells_failed fs ->
        Some
          (Fmt.str "@[<v>%d matrix cell(s) failed:@,%a@]" (List.length fs)
             Fmt.(list ~sep:cut pp_cell_failure)
             fs)
    | _ -> None)

type supervision = { timeout_s : float option; retries : int; backoff_s : float }

(* Host failures that a retry can plausibly cure: watchdog expiries
   and OS-level trouble (ENOSPC, EIO, ...).  A simulator exception
   ([Sim.Memory.Fault], [Failure] from a heap check, assertion
   failures) is deterministic — the cell would fail identically on
   every attempt. *)
let transient = function
  | Cell_timeout _ | Out_of_memory | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false

(* Run [f] on a fresh domain under a wall-clock watchdog.  OCaml
   domains cannot be killed, so on expiry the runner domain is
   abandoned (it keeps simulating into the void; the leak is bounded by
   process lifetime and only ever exists on the timeout path) and
   [Cell_timeout] is raised to the caller. *)
let run_attempt ~timeout_s ~cancelled f =
  let slot = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        let r =
          match f () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Atomic.set slot (Some r))
  in
  let deadline =
    match timeout_s with
    | Some limit -> Unix.gettimeofday () +. limit
    | None -> infinity
  in
  let rec wait () =
    match Atomic.get slot with
    | Some (Ok v) ->
        Domain.join d;
        v
    | Some (Error (e, bt)) ->
        Domain.join d;
        Printexc.raise_with_backtrace e bt
    | None ->
        (* Cancellation is not a watchdog expiry, and it is
           deliberately not {!transient}: a cancelled attempt must not
           be retried. *)
        if cancelled () then raise Attempt_cancelled
        else if Unix.gettimeofday () > deadline then
          raise
            (Cell_timeout (match timeout_s with Some l -> l | None -> infinity))
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
  in
  wait ()

let run_attempts ?(cancelled = fun () -> false) sup f =
  let rec attempt k =
    match run_attempt ~timeout_s:sup.timeout_s ~cancelled f with
    | v -> Ok v
    | exception e when k < sup.retries && transient e && not (cancelled ()) ->
        if sup.backoff_s > 0. then
          Unix.sleepf (sup.backoff_s *. (2. ** float_of_int k));
        attempt (k + 1)
    | exception e -> Error (k + 1, e)
  in
  attempt 0

let run_all ?domains ?on_cell t =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Domain.recommended_domain_count ()
  in
  let cells =
    List.filter
      (fun ((spec : Workloads.Workload.spec), mode) ->
        not (Hashtbl.mem t.cache (spec.Workloads.Workload.name, Workloads.Api.mode_name mode)))
      (report_cells ())
  in
  (* Replay fills run the recording-mode cells first.  Recording is
     lazy (first demand for a variant's trace), and the report order
     puts replayed columns (sun) before recording columns (gc): left
     alone, the recording run — which *is* the recording-mode cell's
     result — would execute inside the first replayed cell's timed
     span and be charged to the wrong column.  Memoised results are
     order-independent, so the report bytes don't change. *)
  let cells =
    if not t.replay then cells
    else
      let recording, replayed =
        List.partition (fun (_, m) -> is_recording_mode m) cells
      in
      recording @ replayed
  in
  let cells = Array.of_list cells in
  let n = Array.length cells in
  let results = Array.make n None in
  let failures = Array.make n None in
  (* Completion callbacks run inside worker domains; serialise them so
     a per-cell progress line is never interleaved mid-write.  A cell
     reaches [on_cell] only after its disk-cache entry is durable, so
     any progress the user saw survives a crash. *)
  let cell_mutex = Mutex.create () in
  let notify timing cycles =
    match on_cell with
    | None -> ()
    | Some f ->
        Mutex.lock cell_mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock cell_mutex)
          (fun () -> f timing ~cycles)
  in
  let run_cell i =
    let spec, mode = cells.(i) in
    let workload = spec.Workloads.Workload.name
    and mode_name = Workloads.Api.mode_name mode in
    let t0 = Unix.gettimeofday () in
    match cell t spec mode with
    | r ->
        let wall = Unix.gettimeofday () -. t0 in
        let timing = { workload; mode = mode_name; wall_s = wall } in
        results.(i) <- Some (r, timing);
        notify timing r.Workloads.Results.cycles
    | exception e ->
        failures.(i) <-
          Some { workload; mode = mode_name; last_error = Printexc.to_string e }
  in
  if n > 0 then begin
    let nd = min domains n in
    if nd > 1 then
      t.progress (Fmt.str "running %d matrix cells on %d domains ..." n nd);
    parallel_for ~domains:nd n (fun i ->
        if nd <= 1 then
          t.progress
            (Fmt.str "running %s under %s ..." (fst cells.(i)).Workloads.Workload.name
               (Workloads.Api.mode_name (snd cells.(i))));
        run_cell i);
    (* The memo table is written from this domain only, after every
       worker has joined: it is never touched concurrently. *)
    Array.iteri
      (fun i (spec, mode) ->
        match results.(i) with
        | Some (r, _) ->
            Hashtbl.replace t.cache
              (spec.Workloads.Workload.name, Workloads.Api.mode_name mode)
              r
        | None -> ())
      cells
  end;
  (match List.filter_map Fun.id (Array.to_list failures) with
  | [] -> ()
  | fs -> raise (Cells_failed fs));
  Array.to_list results |> List.filter_map (Option.map snd)

let malloc_modes spec =
  List.filter
    (fun m -> match m with Workloads.Api.Region _ -> false | _ -> true)
    (Workloads.Workload.modes_for spec)

let region_safe = Workloads.Api.Region { safe = true }
let region_unsafe = Workloads.Api.Region { safe = false }

let moss_slow_result t = get t Workloads.Workload.moss_slow region_safe

let mode_label = function
  | Workloads.Api.Direct Workloads.Api.Sun | Workloads.Api.Emulated Workloads.Api.Sun
    -> "Sun"
  | Workloads.Api.Direct Workloads.Api.Bsd | Workloads.Api.Emulated Workloads.Api.Bsd
    -> "BSD"
  | Workloads.Api.Direct Workloads.Api.Lea | Workloads.Api.Emulated Workloads.Api.Lea
    -> "Lea"
  | Workloads.Api.Direct Workloads.Api.Gc | Workloads.Api.Emulated Workloads.Api.Gc
    -> "GC"
  | Workloads.Api.Region { safe = true } -> "Reg"
  | Workloads.Api.Region { safe = false } -> "Unsafe"
