(** Multiprecision natural numbers stored in the simulated heap.

    The cfrac benchmark factors a large integer with the continued
    fraction method; its allocation profile — millions of small,
    short-lived bignums — is what makes it allocation-intensive.  A
    number is stored as [\[len; limb0; ...\]] with 16-bit limbs in
    little-endian order, one limb per 32-bit word, normalised (no
    leading zero limb; zero has [len] 0).

    Every operation allocates its result through the caller-supplied
    allocator, so the same arithmetic runs in regions, under
    malloc/free, or under the collector.  Input limbs are read and
    output limbs written through the simulated memory (charged,
    cached); the pure computation is charged as base work. *)

type ctx = {
  api : Api.t;
  alloc : int -> int;
      (** [alloc nwords] returns the address of [nwords] fresh words.
          The workload decides where they live and tracks them for
          deallocation. *)
}

type nat = int
(** Address of a number in the simulated heap. *)

val of_int : ctx -> int -> nat
(** [of_int ctx n] with [n >= 0]. *)

val to_int_opt : ctx -> nat -> int option
(** The value if it fits in 62 bits. *)

val to_decimal : ctx -> nat -> string
(** Decimal string (allocates scratch internally via [ctx]). *)

val of_decimal : ctx -> string -> nat

val num_limbs : ctx -> nat -> int
val is_zero : ctx -> nat -> bool
val is_even : ctx -> nat -> bool

val compare_nat : ctx -> nat -> nat -> int
val equal : ctx -> nat -> nat -> bool

val add : ctx -> nat -> nat -> nat
val sub : ctx -> nat -> nat -> nat
(** @raise Invalid_argument if the result would be negative. *)

val mul : ctx -> nat -> nat -> nat

val divmod : ctx -> nat -> nat -> nat * nat
(** [(quotient, remainder)].  @raise Division_by_zero. *)

val divmod_small : ctx -> nat -> int -> nat * int

val mod_small : ctx -> nat -> int -> int
(** Remainder only; allocates nothing (cfrac's trial-division fast
    path). *)

val copy : ctx -> nat -> nat
(** Duplicate a number through [ctx.alloc] — used to move survivors
    into a fresh region or allocation chunk. *)

val modulo : ctx -> nat -> nat -> nat
val isqrt : ctx -> nat -> nat
(** Integer square root: largest [r] with [r*r <= n]. *)

val gcd : ctx -> nat -> nat -> nat
val mulmod : ctx -> nat -> nat -> nat -> nat
(** [mulmod ctx a b m = a*b mod m]. *)
