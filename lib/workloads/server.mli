(** Multi-mutator server workload.

    N mutators, time-sliced over the single simulated machine by
    {!Regions.Sched}, each serve a deterministic stream of requests
    with a per-request region lifecycle — open a region at arrival,
    allocate the request's linked nodes and string buffers into it,
    delete it with the response (the paper's section 4 server idiom).
    One scheduler step is one unit of request work, finer than a whole
    request, so open regions interleave on the shared page map — the
    traffic the bump fast path's contention counters measure.

    Under malloc modes the same request streams run per-request
    malloc/free batches (the GC backend sees the live blocks as
    roots), so every allocator column of the matrix is comparable. *)

type params = {
  mutators : int;
  requests : int;  (** total, distributed round-robin over mutators *)
  quantum : int;  (** scheduler base steps per turn *)
  seed : int;
  bump : bool;  (** enable the region bump fast path *)
}

val default_params : params
(** 4 mutators, 600 requests, quantum 16, bump on. *)

val large_params : params

type mutator_stat = {
  ms_served : int;
  ms_allocs : int;
  ms_bytes : int;
  ms_peak_live_bytes : int;  (** within a single request *)
  ms_steps : int;
  ms_quanta : int;
  ms_curve : int array;  (** live bytes sampled at each quantum end *)
}

type outcome = {
  served : int;
  allocs : int;
  bytes : int;
  checksum : int;
      (** folds every allocation address: identical with the bump path
          on and off (the address-identity witness) *)
  handoffs : int;
  interleave_hash : int;  (** {!Regions.Sched.stats.interleave_hash} *)
  per_mutator : mutator_stat array;
  bump_stats : Regions.Region.bump_stats;
}

val run : Api.t -> params -> outcome
(** The scheduled engine.  Deterministic in (params, mode): the
    interleaving is a pure function of (seed, quantum, N) and each
    mutator's request stream a pure function of (seed, mid).
    @raise Invalid_argument on mutators < 1, requests < 0 or
    quantum < 1. *)

val run_sequential : Api.t -> params -> outcome
(** The unscheduled baseline: the same mutator states driven to
    completion one after another — no scheduler, no mutator switching,
    no bump machinery (ignores [params.bump]).  With [mutators = 1]
    this is the legacy single-mutator program byte for byte, which is
    the qcheck equivalence gate for {!run}. *)
