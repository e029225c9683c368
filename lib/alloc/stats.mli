(** Per-allocator statistics.

    These drive Tables 2 and 3 and Figure 8 of the paper: total
    allocations, total kilobytes allocated (sizes rounded to the
    nearest multiple of four, as the paper does), the maximum amount of
    live memory at any time, and the memory mapped from the OS.

    Live-size accounting uses an OCaml-side address table; it is pure
    measurement and charges no simulated cost.  The table is an
    open-addressing array of packed ints, so recording an allocation
    or a free allocates nothing on the host.  Blocks freed only as a
    group (region objects) skip the table: see {!on_group_alloc}. *)

type t

val create : unit -> t

val on_alloc : t -> addr:int -> size:int -> unit
(** Record an allocation of [size] requested bytes at [addr].  An
    allocation at an address already recorded replaces its size.
    @raise Invalid_argument unless [0 < addr < 2^29] (the simulated
    address space) and the rounded size is below 2^30. *)

val on_free : t -> int -> unit
(** Record the deallocation of the block at the given address.
    Unknown addresses are ignored (the caller validates frees). *)

val on_group_alloc : t -> int -> unit
(** [on_group_alloc t size] records an allocation of [size] requested
    bytes whose block is never freed on its own: it goes with the rest
    of its group (a region's objects) in one {!on_group_free}.  No
    address is kept, so this is a few adds. *)

val on_group_free : t -> count:int -> bytes:int -> unit
(** Record the deallocation of [count] blocks recorded by
    {!on_group_alloc} whose word-rounded sizes sum to [bytes]: the
    readouts move exactly as under one {!on_free} per block. *)

val on_map : t -> int -> unit
(** Record bytes mapped from the OS. *)

val allocs : t -> int
val frees : t -> int

val total_bytes : t -> int
(** Sum of all requested sizes, each rounded up to a word. *)

val live_bytes : t -> int
val max_live_bytes : t -> int
val os_bytes : t -> int
val pp : t Fmt.t
