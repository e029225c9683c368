(** Deterministic pseudo-random number generator (splitmix64).

    Every experiment seeds its own generator so that runs are exactly
    reproducible regardless of ordering. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. *)

val next : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be
    positive. *)

val bool : t -> bool
val float : t -> float -> float

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)
