(** Replay-time heap timeline: memory-over-allocation-events curves at
    bounded memory.

    The paper's core evidence is memory behaviour {e over time}
    (Figures 8–9), but a 50M-object replay can only afford O(ring)
    profiling state.  A timeline samples a probe every [interval]
    allocation events into a fixed-capacity ring; when the ring fills
    it compacts — every other sample is dropped and the interval
    doubles — so any trace length yields between [capacity/2] and
    [capacity] evenly spaced samples.

    Every sampled quantity is simulated state (byte counts from the
    simulated OS and the allocator's cost-free accounting), so the
    rendered CSV is byte-identical across hosts and runs — the
    [timeline] generated block in EXPERIMENTS.md round-trips
    [repro docs --check] like every other one. *)

type t

type probe = unit -> int * int * int * int
(** [live_allocs, live_bytes, held_bytes, os_bytes] at the moment of
    the sample: objects and requested (word-rounded) bytes live from
    the program's point of view, bytes the manager holds for them
    (usable sizes under malloc columns, uncollected bytes under GC),
    and bytes mapped from the simulated OS. *)

val create : ?capacity:int -> unit -> t
(** A timeline that samples every allocation event until its ring of
    [capacity] samples (default 4096) first fills.  The
    probe is attached separately by whoever owns the run
    ({!set_probe}): the replay engine builds it once the simulated
    machine exists. *)

val set_probe : t -> probe -> unit
val note : t -> unit
(** One allocation event: increments the event clock and samples the
    probe when the clock crosses the current interval. *)

val finish : t -> unit
(** Record one final sample at the current event clock, whatever the
    interval phase, so the curve always ends on the end state. *)

val interval : t -> int
(** The current (possibly doubled) sampling period. *)

val length : t -> int

val to_csv : t -> string
(** Deterministic CSV: header plus one row per sample —
    [events,live_allocs,live_bytes,held_bytes,os_bytes,
    internal_frag_bytes,external_frag_bytes,mapped_pages] where
    internal fragmentation is [held - live], external is [os - held]
    and pages are 4 KiB. *)

val iter : t -> (events:int -> live_allocs:int -> live_bytes:int ->
  held_bytes:int -> os_bytes:int -> unit) -> unit
