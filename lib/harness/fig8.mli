(** Figure 8 of the paper: memory requested from the OS by each
    allocator versus the memory the program requested, per
    benchmark. *)

val render : Matrix.t -> string

val md : Matrix.t -> string
(** The per-allocator footprint table with region ranking as markdown
    (the `fig8` doc block). *)
