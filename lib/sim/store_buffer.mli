(** Fixed-depth store buffer modelled as a ring of completion cycles.

    Replaces the heap-allocating [Queue] the cache simulator used per
    store: pushing a store allocates nothing.  Semantics are exactly
    those of the UltraSparc-I model in {!Cache}: completed stores
    retire silently; pushing into a full buffer stalls the processor
    until the oldest outstanding store completes; stores drain in
    order, each beginning no earlier than its predecessor's
    completion.

    The code is {!Memory.Store_buffer_impl}, which the cache model in
    {!Memory} runs inline on every simulated store. *)

type t = Memory.Store_buffer_impl.t

val create : depth:int -> t
(** [create ~depth] is an empty buffer holding at most [depth]
    outstanding stores.  [depth] must be positive. *)

val push : t -> now:int -> latency:int -> int
(** [push t ~now ~latency] retires every store whose completion cycle
    is [<= now], then enqueues a new store that drains in [latency]
    cycles once the drain port is free.  Returns the stall cycles the
    processor pays when the buffer is full (0 otherwise); the caller
    charges them, advancing its clock to [now + stall]. *)

val length : t -> int
(** Outstanding (not yet retired as of the last [push]) stores. *)

val last_completion : t -> int
(** Completion cycle of the most recently pushed store (0 if none
    ever). *)

val reset : t -> unit
