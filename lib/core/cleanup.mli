(** Cleanup-function registry (paper sections 3.2 and 4.2.4).

    Every [ralloc]ed object carries a cleanup function, stored as one
    word at the start of the object.  When a region is deleted, the
    region scan (Figure 7 of the paper) walks every object and runs
    its cleanup, which must [destroy] each region pointer in the
    object — decrementing the reference count of the pointee's region —
    and report the object's size so the scan can skip to the next
    object.

    In C@ the programmer writes cleanups by hand because C unions hide
    pointer locations; the paper notes that "in higher-level languages
    the cleanup function could be generated automatically by the
    compiler".  This library does exactly that: cleanups are generated
    from {!layout} descriptions ({!register_object},
    {!register_array}), though fully custom cleanups are also
    supported for finalisation ({!register_custom}). *)

type layout = {
  size_bytes : int;  (** object size as requested *)
  ptr_offsets : int list;  (** byte offsets of region-pointer fields *)
}

val layout_words : int -> layout
(** [layout_words n] is a pointer-free layout of [n] words. *)

val layout : size_bytes:int -> ptr_offsets:int list -> layout

type id = int
(** Cleanup identifier, as stored in object headers.  0 is reserved:
    it marks the end of a partially-filled page. *)

type kind =
  | Object of layout
  | Array of layout  (** element layout; the count precedes the data *)
  | Custom of { size_bytes : int; run : Sim.Memory.t -> int -> unit }

type t

val create : unit -> t

val register_object : t -> layout -> id
(** Cleanups are shared: registering a structurally equal layout
    again returns the same id.  Ids are 1, 2, 3, ... in the order of
    first registration, across all three [register_] functions.
    Registering a layout the table has seen costs no hash and no host
    allocation. *)

val register_array : t -> layout -> id
(** As {!register_object}; an array cleanup never shares an id with
    the object cleanup of the same layout. *)

val register_custom :
  t -> size_bytes:int -> (Sim.Memory.t -> int -> unit) -> id
(** [register_custom t ~size_bytes run] registers a finaliser [run]
    called with the object's data address during the region scan; the
    object is treated as pointer-free. *)

val find : t -> id -> kind
(** An array index.
    @raise Invalid_argument on an id not returned by this table. *)

val stride : layout -> int
(** Array element stride: the element size rounded up to a word. *)
