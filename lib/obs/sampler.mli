(** Simulated-cycle-driven time-series sampler.

    Turns the end-of-run aggregates of Figures 8 and 10 into a profile
    over simulated time: whenever the tracer observes an event past the
    next interval boundary, the sampler stores one row of cumulative
    counters (live bytes, OS-mapped bytes, cache hits/misses, stall
    cycles) stamped with the current cycle.  Rows are cumulative, so
    consecutive differences give exact per-interval deltas and the
    whole series partitions the run: the deltas sum to the final
    counter values (a property the test suite checks).

    The sampler itself never reads the simulator — the caller passes a
    {!probe} snapshot — and never charges simulated cost. *)

type probe = {
  base_instrs : int;
  mem_instrs : int;
  read_stalls : int;
  write_stalls : int;
  live_bytes : int;
  os_bytes : int;
  l1_hits : int;
  l1_misses : int;
  l2_misses : int;
  stores : int;
}

val zero_probe : probe
val sub : probe -> probe -> probe

type t

val create : ?interval:int -> unit -> t
(** [interval] (default 50000) is the sampling period in simulated
    cycles. *)

val due : t -> now:int -> bool
(** Whether a sample would be recorded at cycle [now] — lets callers
    avoid building a probe that would be discarded. *)

val record : t -> now:int -> probe -> unit
(** Store a sample if one is due at [now]; otherwise do nothing.  The
    next sample becomes due at the first interval boundary after
    [now]. *)

val finish : t -> now:int -> probe -> unit
(** Store the closing sample so the series always ends on the final
    counter values.  A sample already taken at exactly [now] is kept if
    the counters have not moved since, and overwritten (never
    duplicated) if they have — interval deltas therefore partition the
    run's totals. *)

val length : t -> int

val iter : t -> (cycles:int -> probe -> unit) -> unit
