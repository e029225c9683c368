(** Conservative mark–sweep collector in the style of Boehm–Weiser
    v4.12, the garbage collector the paper benchmarks against
    ([BW88]).

    Design, following the original:

    - the heap is organised in 4 KB blocks, each dedicated to one
      object size class (multiples of 16 bytes up to 512) or to a
      single large object; block descriptors and mark bits live
      outside the heap;
    - allocation pops from a per-class free list threaded through the
      free objects themselves; objects are returned zeroed (as
      [GC_malloc] does);
    - collection is triggered once the bytes allocated since the last
      collection exceed a fraction of the heap, marks conservatively
      from the supplied roots (any word that could be a pointer into
      an allocated object — including interior pointers — pins that
      object), scans live objects word by word, and sweeps dead
      objects back onto free lists;
    - [free] is a no-op: the paper "disables all frees when compiling
      with this collector, thus guaranteeing safe memory management";
    - the allocator's [check_heap] verifies the free lists (alignment,
      class agreement, alloc bits clear, no cycles) and the large-block
      free list, reading through cost-free peeks.

    All collector work is charged to the [Alloc] cost context and its
    heap traffic goes through the simulated cache, so GC time and
    locality are part of every measurement. *)

type t

(** The free large blocks, keyed by page count (exposed for tests). *)
module Free_large : sig
  type 'a t

  val empty : 'a t

  val push : int -> 'a -> 'a t -> 'a t
  (** [push pages blk s] adds [blk], a free block of [pages] pages. *)

  val take : int -> 'a t -> ('a * 'a t) option
  (** [take pages s] removes the block a request for [pages] pages
      reuses: of the smallest page count [>= pages], the most recently
      pushed.  That is the first fit in a single list of free blocks
      kept newest first and scanned for the smallest count.  [None]
      when no block is large enough. *)

  val iter : ('a -> unit) -> 'a t -> unit
end

val create :
  ?trigger_min_bytes:int ->
  ?heap_fraction:float ->
  roots:((int -> unit) -> unit) ->
  Sim.Memory.t ->
  Alloc.Allocator.t * t
(** [create ~roots mem] returns the allocator interface and the
    collector handle.  [roots iter] must call [iter] on every root
    word (e.g. {!Regions.Mutator.iter_roots}).  A collection runs when
    allocations since the last one exceed
    [max trigger_min_bytes (heap_fraction * heap bytes)]
    (defaults: 128 KB and 0.5). *)

val collect : t -> unit
(** Force a full collection. *)

val collections : t -> int
val heap_bytes : t -> int

val is_live : t -> int -> bool
(** Whether the address is currently an allocated object (tests). *)
