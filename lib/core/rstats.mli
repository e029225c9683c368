(** Region-level statistics: the region columns of Table 2 of the
    paper (total regions, maximum concurrent regions, largest region,
    average region size, average allocations per region).

    Measurement only; charges no simulated cost. *)

type t

type counts = private { mutable bytes : int; mutable allocs : int }
(** One live region's requested bytes (each allocation rounded to a
    word by the caller) and allocation count. *)

val create : unit -> t

val on_new : t -> counts
(** Record the creation of a region; returns its zeroed counts. *)

val on_alloc : t -> counts -> int -> unit
(** [on_alloc t c bytes] records an allocation of [bytes] in the region
    whose counts are [c]. *)

val on_delete : t -> unit
(** Record the deletion of a live region. *)

val total_regions : t -> int
val live_regions : t -> int
val max_live_regions : t -> int

val max_region_bytes : t -> int
(** Size of the largest region ever, in requested bytes. *)

val avg_region_bytes : t -> float
val avg_allocs_per_region : t -> float
