(** Per-process local reference counts for parallel regions.

    The paper (section 1) sketches how explicit regions extend to an
    explicitly-parallel language: "Each process keeps a local
    reference count for each region which counts the references
    created or deleted by that process.  A region can be deleted if
    the sum of all its local reference counts is zero.  Writes of
    references to regions must be done with an atomic exchange ...
    however the local reference counts can be adjusted without
    synchronization or communication."

    This module implements that protocol (the processes are simulated;
    determinism is part of the repository's design).  The essential
    properties, checked by the test suite:

    - {!acquire}, {!release} and {!transfer} touch only the acting
      process's slot (no synchronisation);
    - an individual local count may be negative — a process may
      release references it did not create — yet {!sum} always equals
      the true number of live references;
    - only {!try_delete} (the region-deletion path) reads all slots,
      mirroring the paper's "the only operations that require
      synchronization amongst all processes are region creation and
      deletion". *)

type t

val create : nprocs:int -> t

val acquire : t -> proc:int -> unit
(** The process gains a reference (e.g. it stored a region pointer). *)

val release : t -> proc:int -> unit
(** The process destroys a reference — not necessarily one it
    created. *)

val transfer : t -> from_proc:int -> to_proc:int -> unit
(** Hand a reference between processes: models the atomic exchange of
    the pointer itself; each side adjusts only its own count. *)

val local : t -> proc:int -> int
val sum : t -> int

val deletable : t -> bool
(** True when the sum of local counts is zero and not yet deleted. *)

val try_delete : t -> bool
(** Atomically delete if {!deletable}; returns whether deletion
    happened.  Further operations on a deleted counter raise
    [Invalid_argument]. *)

val deleted : t -> bool
