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

(** The free large blocks, a stack per page count (exposed for tests). *)
module Free_large : sig
  type 'a t

  val create : none:'a -> 'a t
  (** An empty store; [take] returns [none] when nothing fits. *)

  val push : 'a t -> int -> 'a -> unit
  (** [push s pages blk] adds [blk], a free block of [pages] pages. *)

  val take : 'a t -> int -> 'a
  (** [take s pages] removes and returns the block a request for
      [pages] pages reuses: of the smallest page count [>= pages], the
      most recently pushed.  That is the first fit in a single list of
      free blocks kept newest first and scanned for the smallest
      count.  [none] when no block is large enough; builds nothing. *)

  val iter : ('a -> unit) -> 'a t -> unit
end

val create :
  ?trigger_min_bytes:int ->
  roots:((int -> unit) -> unit) ->
  Sim.Memory.t ->
  Alloc.Allocator.t * t
(** [create ~roots mem] returns the allocator interface and the
    collector handle.  [roots iter] must call [iter] on every root
    word (e.g. {!Regions.Mutator.iter_roots}).  A collection runs when
    allocations since the last one exceed
    [max trigger_min_bytes (heap bytes / 2)], the heap as of the last
    collection ([trigger_min_bytes] defaults to 128 KB). *)

val collect : t -> unit
(** Force a full collection. *)

val collections : t -> int
val heap_bytes : t -> int

val is_live : t -> int -> bool
(** Whether the address is currently an allocated object (tests). *)
