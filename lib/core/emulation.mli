(** Region emulation over malloc/free (paper section 5.2).

    "A region library that uses malloc and free to allocate and free
    each individual object.  This library approximates the performance
    a region-based application would have if it were written with
    malloc/free."  Each region keeps its objects on a linked list
    (imposing the small space overhead the paper subtracts in its
    "w/o overhead" figures) so that [deleteregion] can free them all.

    Emulated regions provide no safety: [deleteregion] always
    succeeds, and there are no reference counts or cleanups.

    The library keeps the emulated columns' books itself, apart from
    the allocator's own table (which sees every region record and
    link): what the program requested ({!requested}), each live
    region's object count and bytes, and the bytes of emulation
    overhead.  Each is updated after the simulated operation it
    describes and charges nothing. *)

type t

type region = int
(** Address of the region record (a malloc'd block holding the object
    list head). *)

val create : Alloc.Allocator.t -> t

val allocator : t -> Alloc.Allocator.t
(** The malloc the regions are emulated over. *)

val newregion : t -> region
val ralloc : t -> region -> int -> int
(** Allocate [size] bytes in the region; contents are cleared, as
    [ralloc] promises. *)

val rstralloc : t -> region -> int -> int
(** Allocate without clearing. *)

val deleteregion : t -> region -> unit
(** Free every object in the region, then the region record. *)

val requested : t -> Alloc.Stats.t
(** What the program requested: each object's size, word-rounded, as
    a group allocation; a deleted region's objects leave it in one
    group free.  Excludes the region records and object links. *)

val max_overhead_bytes : t -> int
(** Peak bytes attributable purely to emulation: 12 per live region
    (the one-word record and its malloc header) and 8 per live object
    (its link), for the "w/o overhead" rows of Table 3 / Figure 8. *)
