(** Heap-integrity sanitizer over any {!Alloc.Allocator.t}.

    Wraps an allocator with address-keyed redzones around every block,
    0xDEADBEEF poison-fill of freed blocks, and a quarantine that
    delays the underlying [free] so that writes through dangling
    pointers land in still-poisoned memory.  All sanitizer reads and
    writes go through the cost-free {!Sim.Memory.peek}/{!Sim.Memory.poke},
    so simulated instruction and cycle counts are never perturbed by
    the checking itself.

    Detects:
    - {b overflow / underflow}: a redzone word no longer holds its
      address-derived pattern;
    - {b use-after-free}: a quarantined block's body no longer holds
      poison;
    - {b double free}: [free] of a quarantined block;
    - {b invalid free}: [free] of an address never returned by
      [malloc] (or already evicted from quarantine).

    Works uniformly over all five allocators (Sun, BSD, Lea, the
    Boehm-style collector, and a region via
    {!Regions.Region.region_allocator}). *)

type violation =
  | Overflow of { user : int; size : int; addr : int }
      (** A rear-redzone word at [addr] was clobbered. *)
  | Underflow of { user : int; size : int; addr : int }
  | Use_after_free of { user : int; size : int; addr : int }
  | Double_free of int
  | Invalid_free of int

exception Violation of violation

val pp_violation : violation Fmt.t

type config = {
  redzone_words : int;  (** words of redzone on each side of a block *)
  quarantine : int;  (** freed blocks held poisoned before real free *)
}

val default : config
(** 2 redzone words, 64-block quarantine. *)

type t

val wrap : ?config:config -> Alloc.Allocator.t -> t

val allocator : t -> Alloc.Allocator.t
(** The sanitized allocator.  Its [check_heap] verifies every redzone
    and every quarantined block's poison, then runs the underlying
    allocator's own [check_heap]. *)

val check : t -> unit
(** As the wrapped [check_heap].  @raise Violation on the first
    corrupted word found. *)

val flush : t -> unit
(** Verify and release every quarantined block to the underlying
    allocator (used at end of trace so frees-accounting converges). *)

val iter_tracked : t -> (int -> unit) -> unit
(** Call with the base address of every live and quarantined
    underlying block.  The GC target registers this as a root provider
    so the collector cannot reclaim blocks the sanitizer still
    watches. *)

val iter_redzone_words : t -> (int -> unit) -> unit
(** Call with the address of every redzone word currently guarded
    (front and rear, live and quarantined blocks).  Cost-free; the
    bit-flip fault injector aims corruption here to prove the
    sanitizer catches every flip in a redzoned heap. *)
