(** "Lea" allocator: a simplified Doug Lea malloc v2.6.4 — boundary
    tags with coalescing, exact segregated bins for small chunks and
    ranged bins for large ones.  This is the allocator that performed
    best overall in the surveys the paper cites; it combines a fast
    bin lookup with low fragmentation. *)

val create : Sim.Memory.t -> Allocator.t

val bin_index : int -> int
(** [bin_index size] is the bin of a free chunk of [size] bytes (a
    multiple of 8, at least 16): the exact bins 0..62 for 16..512
    bytes, then 63 for 520..1024 and one bin per power of two up to
    70 for everything above 64 KB. *)

val create_with_heap : Sim.Memory.t -> Allocator.t * Chunks.t
(** As {!create} but also exposes the underlying chunk heap so tests
    can run {!Chunks.check_invariants}. *)
