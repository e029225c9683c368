(** Region emulation over malloc/free (paper section 5.2).

    "A region library that uses malloc and free to allocate and free
    each individual object.  This library approximates the performance
    a region-based application would have if it were written with
    malloc/free."  Each region keeps its objects on a linked list
    (imposing the small space overhead the paper subtracts in its
    "w/o overhead" figures) so that [deleteregion] can free them all.

    Emulated regions provide no safety: [deleteregion] always
    succeeds, and there are no reference counts or cleanups. *)

type t

type region = int
(** Address of the region record (a malloc'd block holding the object
    list head). *)

val overhead_per_object : int
(** Link bytes added to every allocation (8, as the paper assumes). *)

val create : Alloc.Allocator.t -> t

val newregion : t -> region
val ralloc : t -> region -> int -> int
(** Allocate [size] bytes in the region; contents are cleared, as
    [ralloc] promises. *)

val rstralloc : t -> region -> int -> int
(** Allocate without clearing. *)

val deleteregion : t -> region -> unit
(** Free every object in the region, then the region record. *)

val live_regions : t -> int
