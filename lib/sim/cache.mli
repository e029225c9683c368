(** Direct-mapped two-level data-cache and store-buffer simulator.

    Models the memory hierarchy behind Figure 10 of the paper: cycles
    lost to read stalls (a load waiting for a missing line) and write
    stalls (the store buffer is full).  Both cache levels are
    direct-mapped, as on the UltraSparc-I; the L1 is write-through and
    no-write-allocate, so stores retire through a fixed-depth store
    buffer whose drain latency depends on whether the line hits in L2.

    Stall cycles are charged to the {!Cost.t} the cache was created
    with; the current time is [Cost.cycles].

    The code is {!Memory.Cache_impl}: {!Memory} runs this same model
    inline on every access, and this module re-exports it for callers
    that drive the cache directly.  Set-associative geometries
    ({!Machine.with_associativity}) use LRU replacement. *)

type t = Memory.Cache_impl.t

val create : Machine.t -> Cost.t -> t

val read : t -> int -> unit
(** [read t addr] simulates a load from [addr], charging read-stall
    cycles on a miss and updating both levels. *)

val write : t -> int -> unit
(** [write t addr] simulates a store to [addr] through the store
    buffer, charging write-stall cycles when the buffer is full. *)

val l1_hits : t -> int
val l1_misses : t -> int
val l2_misses : t -> int
val stores : t -> int
