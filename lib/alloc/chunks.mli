(** Boundary-tag chunk heap shared by the Sun and Lea allocators.

    The layout follows classic malloc implementations of the paper's
    era (Doug Lea's malloc 2.6.4 in particular):

    - a chunk is a header word followed by user data; the header holds
      the chunk size (a multiple of 8, at least 16) with two flag bits:
      bit 0 = this chunk is in use, bit 1 = the {e previous} chunk is
      in use;
    - a free chunk additionally carries [next]/[prev] free-list links
      in its first two user words and a size footer in its last word,
      allowing O(1) coalescing with both neighbours;
    - the heap grows in page-granularity segments; each segment ends
      with an 8-byte always-in-use sentinel so coalescing never runs
      off a segment, and an extension adjacent to the previous segment
      absorbs the old sentinel so the heap stays contiguous.

    The free-list {e policy} (one global best-fit list for Sun,
    segregated bins for Lea) is supplied by the client. *)

type t

type policy = {
  insert : t -> int -> unit;
      (** [insert heap chunk] adds a free chunk (size in its header)
          to the free structure. *)
  unlink : t -> int -> unit;
      (** [unlink heap chunk] removes a specific free chunk. *)
  find : t -> int -> int;
      (** [find heap size] finds and unlinks a free chunk of at least
          [size] bytes, returning its address, or 0 if none. *)
}

val create :
  Sim.Memory.t ->
  Stats.t ->
  min_extend_pages:int ->
  (static_area:int -> policy) ->
  t
(** [create mem stats ~min_extend_pages make_policy] maps the static
    page and builds the policy once, from the page's address. *)

val memory : t -> Sim.Memory.t

(** Header accessors (free chunks only have meaningful links). *)

val chunk_size : t -> int -> int

(** Doubly-linked free-list helpers for policies.  Lists are threaded
    through free chunks ([next] at +4, [prev] at +8, 0-terminated);
    [head_addr] is a word holding the first chunk. *)

val list_push : t -> head_addr:int -> int -> unit
val list_remove : t -> head_addr:int -> int -> unit
val list_head : t -> head_addr:int -> int
val list_next : t -> int -> int

val malloc : t -> int -> int
(** [malloc t size] returns a user address for [size] bytes.  Extends
    the heap as needed; charges costs under the [Alloc] context. *)

val free : t -> int -> unit
(** [free t addr] releases a block, coalescing with free neighbours.
    @raise Allocator.Invalid_free on double or wild frees. *)

val usable_size : t -> int -> int

val check_invariants : t -> unit
(** Walk every segment verifying header/footer/flag consistency: this
    is the [Allocator.check_heap] of the Sun and Lea allocators, also
    used by the heap sanitizer.  Reads are cost-free peeks.
    @raise Failure on violation. *)
