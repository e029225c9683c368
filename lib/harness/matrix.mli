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
    untraced run.  This is [repro experiment --trace DIR]; [repro run
    W M --trace DIR] writes the same family for one cell.

    [disk] attaches a content-addressed cell cache: cells whose
    (build id, workload, mode, size, seed, plan) address is already
    cached are served from disk instead of simulated, byte-identically
    (the cache key covers everything the deterministic simulation
    depends on); computed cells are written back.  [refresh] keeps the
    cache attached but ignores existing entries (recompute and
    overwrite).  Traced cells are always executed — the artefact
    family must be produced — but their results are still written
    back.

    An executed cell is one call of the cell runner
    {!Workloads.Workload.run}, traced under [trace_dir].  [plan] (with
    its spec string, which becomes part of every cell's cache address
    and provenance) is installed around each such run, as [repro
    faults] does; [seed] is the matching provenance seed.  Planned
    cells are first-class cache citizens: the same plan hits, a
    different plan (or none) misses.  The serve daemon builds its
    planned requests' matrices this way.

    [replay] switches to record-once/replay-per-column: each
    (workload, trace variant) pair is recorded at most once — that run
    doubling as the recording mode's full cell — and every other
    column is driven from the trace by {!Trace.Replay}, reproducing
    all allocator-side measurements while skipping mutator compute.
    Replayed cells carry (and cache under) the reserved plan
    ["replay"], so they never masquerade as full executions.  A trace
    lives for this process only, with or without [disk]: it is a temp
    file ({!Trace.Format.temp_path}), removed when the process exits,
    and a later process records afresh.  [replay] combines with
    neither [plan] nor [trace_dir] ([Invalid_argument]). *)

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

(** {1 Failures and attempts}

    Every cell is a deterministic simulation, so a failed cell fails
    the same way each time: {!run_all} runs each cell once and reports
    the failures together.  The serve daemon, which computes cells for
    clients, runs each one through {!run_attempts}: a per-cell
    wall-clock watchdog and bounded retry with exponential backoff for
    transient host failures. *)

exception Cell_timeout of float
(** Raised (to {!run_attempts}, never the user) when a cell exceeds its
    watchdog.  Counted as transient: a retry gets a fresh attempt. *)

exception Attempt_cancelled
(** Raised by an attempt whose [cancelled] hook fired: the attempt's
    domain is abandoned, exactly as on a watchdog expiry — but
    cancellation is deliberately not transient, so {!run_attempts}
    never retries work it was just asked to stop (the serve daemon
    cancels in-flight attempts at its drain deadline). *)

type cell_failure = { workload : string; mode : string; last_error : string }

val pp_cell_failure : cell_failure Fmt.t

exception Cells_failed of cell_failure list
(** Raised by {!run_all} once every cell has been tried, when some
    cell failed.  The cells that succeeded are memoised (and stored in
    the disk cache) before it is raised.  Its registered printer lists
    every failure. *)

type supervision = {
  timeout_s : float option;
      (** per-attempt wall-clock watchdog; [None] = unbounded.  On
          expiry the attempt's domain is abandoned (OCaml domains
          cannot be killed) — a bounded leak that exists only on the
          timeout path. *)
  retries : int;
      (** extra attempts after the first, for {e transient} failures
          only ([Cell_timeout], [Out_of_memory], [Sys_error],
          [Unix_error]).  Deterministic failures — simulator faults,
          heap-check failures — are never retried: the cell would fail
          identically every time. *)
  backoff_s : float;  (** base backoff; attempt [k] sleeps [2^k] times it *)
}

val run_all :
  ?domains:int ->
  ?on_cell:(cell_timing -> cycles:int -> unit) ->
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

    Each cell runs once.  A cell that raises does not stop the others:
    they still run and are memoised, and then {!Cells_failed} is
    raised with every failure in matrix order. *)

val run_attempts :
  ?cancelled:(unit -> bool) ->
  supervision ->
  (unit -> 'a) ->
  ('a, int * exn) result
(** The serve daemon's per-cell attempt loop.  Each attempt runs the
    body on a fresh domain under the supervision's watchdog, polled
    every ~20ms and abandoned on expiry with {!Cell_timeout}.
    [cancelled] is polled on the same cadence; when it turns true the
    attempt is abandoned the same way but raises {!Attempt_cancelled}.
    Transient failures are retried (never a cancellation, and not once
    [cancelled] holds) up to [retries] times with exponential backoff.
    [Error] carries the attempts made and the last exception. *)

val run_cell_collect :
  t -> Workloads.Workload.spec -> Workloads.Api.mode -> Workloads.Results.t
(** Compute (or serve from the disk cache) one cell, without touching
    the memo table — the per-request entry point of the serve daemon,
    which runs it under {!run_attempts}.  A [~replay:true] matrix is
    rejected ([Invalid_argument]): a replayed cell holds a trace reader
    open for its whole run, which an abandoned attempt would leak. *)

val run_replay_cell :
  t -> Workloads.Workload.spec -> Workloads.Api.mode -> Workloads.Results.t
(** {!run_cell_collect} for a [~replay:true] matrix ([Invalid_argument]
    on any other): the cell exactly as {!run_all} computes it under
    [experiment --replay], outside any watchdog — what {!Replaycheck}
    diffs against the plain matrix. *)

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
