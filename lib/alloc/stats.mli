(** Per-allocator statistics.

    These drive Tables 2 and 3 and Figure 8 of the paper: total
    allocations, total kilobytes allocated (sizes rounded to the
    nearest multiple of four, as the paper does), the maximum amount of
    live memory at any time, and the memory mapped from the OS.

    Live-size accounting is pure measurement and charges no simulated
    cost.  A block freed by address goes into an OCaml-side address
    table, an open-addressing array of packed ints, so recording an
    allocation or a free allocates nothing on the host.  Blocks whose
    owner knows their sizes when they die skip the table and are
    counted with {!on_group_alloc} and {!on_group_free}: region
    objects, freed with their region, and the collector's objects,
    freed by a sweep that reads each one's size from its block. *)

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
    bytes whose block is never freed by address: it goes with the rest
    of its group (a region's objects, or what one collection sweeps)
    in one {!on_group_free}.  No address is kept, so this is a few
    adds. *)

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
