(** Machine-checked summary of the paper's headline claims.

    Each claim from the paper's abstract and section 5 is evaluated
    against the measured matrix and reported as PASS / DEVIATION with
    the numbers that decide it and its pass condition: the threshold
    the deciding quantity is held to, and the margin by which it
    passes.  The test suite asserts the same predicates; this report is
    the human-readable version. *)

val render : Matrix.t -> string
(** The verdicts as a markdown table (the `claims` section). *)
