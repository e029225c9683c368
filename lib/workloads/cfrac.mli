(** The cfrac benchmark: factor a large integer with the continued
    fraction method (CFRAC), as in the paper's benchmark suite.

    Allocation profile: millions of small short-lived bignums from the
    continued-fraction recurrences, plus long-lived relation records.
    Region structure (paper section 5.1): "a region for temporary
    computations for every few iterations of the main algorithm.
    Partial solutions are copied from this region to a solution region
    so that old temporary regions can be deleted."  The malloc variant
    frees each chunk's temporaries explicitly (the original program
    used explicit reference counting). *)

type params = {
  n : string;  (** decimal number to factor *)
  bound : int;  (** smoothness bound for the factor base *)
  max_iterations : int;
  chunk : int;  (** continued-fraction steps per temporary region *)
}

val default_params : params
(** A 13-digit semiprime: a quick run for tests. *)

val medium_params : params
(** A 19-digit semiprime: the benchmark configuration. *)

type outcome = {
  factor : string option;  (** a non-trivial factor, if found *)
  iterations : int;
  relations : int;
}

val run : Api.t -> params -> outcome
(** Runs the variant matching [Api.kind]. *)
