(** Region debugging aids.

    The paper (section 5.1) notes that the hard part of porting
    programs to safe regions is "finding stale pointers that prevent a
    region from being deleted; an environment for debugging regions
    would be helpful here".  This module is that environment: it
    explains {e why} a [deleteregion] would fail by listing every
    external reference into a region — in which frame slot, global
    word, or other region's object each one lives — and it validates
    the region library's internal invariants for tests.

    Everything here reads the simulated heap cost-free ([peek]): these
    are debugging tools, not part of any measured run. *)

type reference =
  | In_frame_slot of { frame_index : int; slot : int; value : int }
  | In_operand of { frame_index : int; value : int }
  | In_global of { addr : int; value : int }
  | In_region_object of {
      holder : Region.region;  (** the region whose object holds the pointer *)
      obj : int;  (** the object's data address *)
      offset : int;  (** byte offset of the pointer field *)
      value : int;
    }

val references_into : Region.t -> Region.region -> reference list
(** Every reference into the region visible to the safety machinery:
    region-pointer frame slots and operands, global words, and
    region-pointer fields of objects in {e other} regions (sameregion
    pointers are not external and are not listed).  The region handle
    passed to [deleteregion] is itself one such reference, so a region
    is deletable exactly when this list has a single element. *)

val explain_delete : Region.t -> Region.region -> string
(** Human-readable report: either "deletable" or the list of blocking
    references. *)

val iter_objects :
  Region.t -> Region.region -> (obj:int -> cleanup:Cleanup.kind -> unit) -> unit
(** Walk every object allocated with [ralloc]/[rarrayalloc] in the
    region (string and large allocations carry no cleanups and are not
    visited), cost-free. *)
