(** Figure 8 of the paper: memory requested from the OS by each
    allocator versus the memory the program requested, per
    benchmark. *)

val vs_lea : Matrix.t -> (string * float) list
(** Per benchmark, safe regions' OS footprint relative to Lea's, in
    percent (negative: regions use less). *)

val render : Matrix.t -> string
(** The per-allocator footprint table with the region ranking (the
    `fig8` section). *)
