(** The cell daemon behind [repro serve].

    A Unix-domain-socket server for (workload, mode, size, seed,
    fault-plan) cell requests over the {!Protocol} framing.  Warm
    cells are answered at O(read) from the content-addressed
    {!Results.Cache}; cold cells run on a pool of worker domains
    through {!Harness.Matrix.run_attempts} (per-attempt watchdog,
    transient-only retry with exponential backoff), and are recorded
    in an fsync'd keyed {!Harness.Journal} — so a [kill -9] at any
    instant leaves only completed, durable cells, and a restart serves
    them byte-identically while re-admitting the rest.

    Robustness invariants:
    - {b Admission control}: at most [max_queue] distinct cold cells
      in flight; beyond that a request gets an immediate
      [Overloaded], never unbounded queueing.  Identical in-flight
      requests dedupe onto one job with many waiters.
    - {b Deadlines}: a request's [deadline_s] bounds its wait — the
      event loop resolves it with [Deadline] when the budget expires
      (the cell keeps cooking for other waiters and the cache) and the
      deadline also caps the cell watchdog when the job starts.
    - {b Slow clients}: responses are queued non-blocking; a client
      that accepts no bytes for [write_timeout_s] is dropped rather
      than allowed to wedge the event loop.
    - {b Malformed input}: an unframeable stream or bad JSON costs the
      offending connection an error frame and a close — never the
      daemon.
    - {b Drain}: SIGTERM/SIGINT stop accepting, let running cells
      finish and flush every queued response, then exit 0.  The drain
      is genuinely bounded by [drain_timeout_s]: any attempt still in
      flight at the deadline is abandoned through the watchdog
      path (its waiters get [Failed]) rather than awaited.
    - {b Recovery}: on startup, journal lines written by this binary
      whose cache entry is missing are re-stored; lines from {e other}
      builds are purged, never replayed, preserving the cache
      invariant that a rebuild invalidates every entry.
    - {b Exclusion}: the cache directory and journal are taken with
      advisory {!Results.Lockfile}s; a second daemon (or a concurrent
      [repro experiment] on the same cache) fails fast with a
      diagnostic naming the holder.

    Every path increments [serve_*] counters in the default
    {!Obs.Metrics} registry (accepted / overloaded / deduped /
    warm-hit / cold / malformed / deadline / failures, plus wait and
    warm-latency log-histograms), and [--cache-max-mb] triggers
    periodic {!Results.Cache.sweep}s whose evictions land in
    [results_cache_evictions_total]. *)

type config = {
  socket : string;  (** Unix-domain socket path (≤ ~100 chars) *)
  cache_dir : string;
  journal : string;
  workers : int;  (** worker domains for cold cells *)
  max_clients : int;  (** concurrent connections (select-bounded) *)
  max_queue : int;  (** distinct in-flight cold jobs *)
  cell_timeout_s : float option;  (** per-attempt watchdog *)
  retries : int;  (** extra attempts for transient failures *)
  backoff_s : float;
  write_timeout_s : float;  (** slow-client eviction threshold *)
  cache_max_mb : int option;  (** size cap enforced by periodic sweeps *)
  drain_timeout_s : float;
      (** hard bound on the SIGTERM drain; in-flight attempts still
          running at the deadline are abandoned, not awaited *)
  metrics_out : string option;
      (** write the final metrics snapshot (JSON) here on exit *)
  log : string -> unit;
}

val default_config : socket:string -> cache_dir:string -> journal:string ->
  config

val run : config -> (unit, string) result
(** Serve until SIGTERM/SIGINT, then drain.  [Error] covers startup
    failures only (lock contention, unbindable socket); once serving,
    per-connection trouble is handled, counted and survived. *)
