(** Memoised result matrix: every (workload, mode) pair is run at most
    once per harness invocation, and every table and figure is derived
    from the same runs (as in the paper, where one set of executions
    feeds Tables 2-3 and Figures 8-11). *)

type t

val create :
  ?progress:(string -> unit) ->
  ?trace_dir:string ->
  ?disk:Results.Cache.t ->
  ?refresh:bool ->
  ?seed:int ->
  ?plan:Fault.Plan.t * string ->
  ?replay:bool ->
  Workloads.Workload.size ->
  t
(** [trace_dir] turns on per-cell tracing: every cell executed by this
    matrix also writes a {!Tracefiles} artefact family under that
    directory.  Tracing is pure observation, so the memoised results —
    and any report rendered from them — are byte-identical to an
    untraced run.  Traced cells sample every
    {!Tracefiles.default_sample_cycles} cycles.

    [disk] attaches a content-addressed cell cache: cells whose
    (build id, workload, mode, size, seed, plan) address is already
    cached are served from disk instead of simulated, byte-identically
    (the cache key covers everything the deterministic simulation
    depends on); computed cells are written back.  [refresh] keeps the
    cache attached but ignores existing entries (recompute and
    overwrite).  Traced cells are always executed — the artefact
    family must be produced — but their results are still written
    back.

    [plan] (with its spec string, which becomes part of every cell's
    cache address and provenance) runs each cell under the given fault
    plan, installed around the run exactly as [repro faults] does;
    [seed] is the matching provenance seed.  Planned cells are
    first-class cache citizens: the same plan hits, a different plan
    (or none) misses.

    [replay] switches to record-once/replay-per-column: each
    (workload, trace variant) pair is recorded at most once — that run
    doubling as the recording mode's full cell — and every other
    column is driven from the trace by {!Trace.Replay}, reproducing
    all allocator-side measurements while skipping mutator compute.
    Replayed cells carry (and cache under) the reserved plan
    ["replay"], so they never masquerade as full executions.  Traces
    are content-addressed in [disk] when present; otherwise they are
    temp files, removed when the process exits.  [replay] combines
    with neither [plan] nor [trace_dir] ([Invalid_argument]). *)

val size : t -> Workloads.Workload.size

val size_name : t -> string
(** ["quick"] or ["full"]: the input size as cell addresses and the
    report sections name it. *)

val cache_stats : t -> int * int
(** (disk-cache hits, misses) so far; (0, 0) without [disk]. *)

val disk_cache : t -> Results.Cache.t option

val store : t -> Results.Store.t
(** Snapshot of every memoised cell as a provenance-carrying
    {!Results.Cell}, in report order (extras follow, sorted) — what
    `repro docs` renders from and what the golden gate compares. *)

val get : t -> Workloads.Workload.spec -> Workloads.Api.mode -> Workloads.Results.t

type cell_timing = { workload : string; mode : string; wall_s : float }

val replayed_column : mode:string -> bool
(** Whether a cell of this mode name is served by trace replay under a
    [~replay:true] matrix, as opposed to being a genuine full
    execution: false exactly for the modes a trace variant records
    under ([gc], [emu-gc], [region]) — their cells double as the
    recording runs — and for unknown mode names. *)

val parallel_for : domains:int -> int -> (int -> unit) -> unit
(** [parallel_for ~domains n f] runs [f 0 .. f (n-1)] across at most
    [domains] OCaml domains with work stealing.  If some [f i] raises,
    the remaining indices are abandoned, every domain is joined, and
    the lowest-index exception is re-raised with its backtrace — the
    pool never hangs or leaks a domain on failure.  [domains <= 1]
    degenerates to a plain sequential loop. *)

(** {1 Supervision}

    The driver's default supervision does nothing: no watchdog, no
    retries, no triage.  A {!supervision} assumes cells can hang or
    fail and keeps the harness standing: a per-cell wall-clock
    watchdog, bounded retry with exponential backoff for transient
    host failures, and on-failure {!Triage} bundles. *)

exception Cell_timeout of float
(** Raised (to the supervisor, never the user) when a cell exceeds its
    watchdog.  Counted as transient: a retry gets a fresh attempt. *)

exception Attempt_cancelled
(** Raised by {!run_attempt} when its [cancelled] hook fires: the
    attempt's domain is abandoned and the guard's closers run, exactly
    as on a watchdog expiry — but cancellation is deliberately not
    transient, so a supervisor never retries work it just asked to
    stop (the serve daemon cancels in-flight attempts at its drain
    deadline). *)

type cell_failure = {
  workload : string;
  mode : string;
  attempts : int;  (** attempts actually made, including the last *)
  last_error : string;
}

val pp_cell_failure : cell_failure Fmt.t

exception Cells_failed of cell_failure list
(** Raised by {!run_all} once every cell has been tried, when some
    cell still failed after its attempts.  The cells that succeeded
    are memoised (and stored in the disk cache) before it is raised.
    Its registered printer lists every failure. *)

type supervision = {
  timeout_s : float option;
      (** per-cell wall-clock watchdog; [None] = unbounded.  On expiry
          the cell's runner domain is abandoned (OCaml domains cannot
          be killed) — a bounded leak that exists only on the timeout
          path. *)
  retries : int;
      (** extra attempts after the first, for {e transient} failures
          only ([Cell_timeout], [Out_of_memory], [Sys_error],
          [Unix_error]).  Deterministic failures — simulator faults,
          heap-check failures — are never retried: the cell would fail
          identically every time. *)
  backoff_s : float;  (** base backoff; attempt [k] sleeps [2^k] times it *)
  quarantine : string option;
      (** directory for {!Triage} bundles of cells that exhaust their
          attempts. *)
}

val default_supervision : supervision
(** No watchdog, no retries ([backoff_s = 0.25] base), no quarantine:
    each cell runs once, in the worker's own domain. *)

val run_all :
  ?domains:int ->
  ?on_cell:(cell_timing -> cycles:int -> unit) ->
  ?supervision:supervision ->
  t ->
  cell_timing list
(** [run_all ?domains t] computes every (workload, mode) cell the full
    report needs that is not memoised yet, and memoises the results,
    fanning the independent cells across [domains] OCaml domains ([1]
    = in this domain, the plain sequential path; default
    {!Domain.recommended_domain_count}).  Every cell owns its simulated
    machine and deterministic RNG, so the memoised results — and any
    report rendered from them — are byte-identical to a sequential
    run.  Returns host wall-clock per cell actually run.

    With a disk cache attached, cells already cached are hits, and
    every computed cell is stored durably as it completes.  A run
    killed at any point is therefore resumed by running it again: the
    stored cells are hits and only the rest are computed.

    [on_cell] fires once per completed cell (from whichever domain ran
    it, under a mutex so callbacks never interleave), after the cell's
    cache entry is stored, with the cell's timing and simulated cycle
    count — the hook behind [--progress].  It only observes; an
    exception it raises propagates out of [run_all] (the remaining
    cells are abandoned).

    [supervision] (default {!default_supervision}) governs each cell's
    attempts.  A cell that fails every attempt gets a triage bundle if
    [quarantine] is set; the other cells still run and are memoised,
    and then {!Cells_failed} is raised with every failure in matrix
    order. *)

(** Ownership tokens for resources opened inside a watchdogged
    attempt.  A timed-out attempt's domain cannot be killed, only
    abandoned — so any fd it holds (the replay path keeps a streaming
    trace reader open for the whole cell) would leak once per timeout.
    The body registers a closer when it opens, and closes it once it
    owns the token: on abandonment the supervisor runs every closer
    still registered, exactly once per resource (the token release is
    the race arbiter).  Guarded resources must tolerate a close under
    the abandoned body's feet — read-only fds qualify; their next read
    fails into the void domain's discarded result. *)
module Guard : sig
  type t
  type token

  exception Abandoned
  (** Raised by {!register} after abandonment (closing the resource
      first): the void domain stops opening things nobody will reap. *)

  val register : t -> (unit -> unit) -> token
end

val run_attempt :
  ?timeout_s:float -> ?cancelled:(unit -> bool) -> (Guard.t -> 'a) -> 'a
(** One watchdogged attempt: run the body on a fresh domain, poll for
    its result, and on expiry abandon the domain, run the guard's
    closers and raise {!Cell_timeout}.  [cancelled] is polled on the
    same ~20ms cadence; when it turns true the attempt is abandoned
    the same way but raises {!Attempt_cancelled} (not transient, never
    retried).  With neither [timeout_s] nor [cancelled] the body runs
    in this domain (the guard never fires). *)

val run_attempts :
  ?cancelled:(unit -> bool) ->
  ?on_retry:(int -> exn -> unit) ->
  supervision ->
  (Guard.t -> 'a) ->
  ('a, int * exn * Printexc.raw_backtrace) result
(** The per-cell attempt loop: {!run_attempt} under the supervision's
    watchdog, retrying transient failures (never a cancellation, and
    not once [cancelled] holds) up to [retries] times with exponential
    backoff.  [on_retry k e] fires before retry [k] (from 1).  [Error]
    carries the attempts made, the last exception and its backtrace.
    {!run_all} runs every cell through it, and so does the serve
    daemon, with its drain hook as [cancelled].  The [quarantine]
    field is not used here. *)

val run_cell_collect :
  ?guard:Guard.t -> t -> Workloads.Workload.spec -> Workloads.Api.mode ->
  Workloads.Results.t
(** Compute (or serve from the disk cache) one cell, without touching
    the memo table — the per-request entry point for callers that do
    their own scheduling (the serve daemon).  [guard] adopts fds the
    cell opens (see {!Guard}); pass the attempt's guard when running
    under {!run_attempt}. *)

val workloads : Workloads.Workload.spec list
(** The six benchmarks, in the paper's order. *)

val report_cells : unit -> (Workloads.Workload.spec * Workloads.Api.mode) list
(** Every cell the full report needs, in report order: each workload
    under {!Workloads.Workload.modes_for}, plus the moss-slow /
    safe-regions extra. *)

val malloc_modes : Workloads.Workload.spec -> Workloads.Api.mode list
(** The four malloc-ish columns (direct or emulated). *)

val region_safe : Workloads.Api.mode
val region_unsafe : Workloads.Api.mode

val moss_slow_result : t -> Workloads.Results.t
(** The single-region moss variant under safe regions (the "slow" bar
    of Figures 9 and 10). *)

val mode_label : Workloads.Api.mode -> string
(** Paper-style column label: Sun, BSD, Lea, GC, Reg, Unsafe. *)
