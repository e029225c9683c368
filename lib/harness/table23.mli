(** Tables 2 and 3 of the paper: allocation behaviour of each
    benchmark with regions (Table 2) and with malloc (Table 3),
    measured on this repository's workloads, with the paper's reported
    values shown alongside.

    The row extraction is shared by the text renderers and the
    markdown emitters used for the generated EXPERIMENTS.md blocks, so
    both views are the same pure function of the stored results. *)

val render_table2 : Matrix.t -> string

val table2_md : Matrix.t -> string
(** Measured + paper rows as markdown (the `table2` doc block). *)

val render_table3 : Matrix.t -> string

val table3_md : Matrix.t -> string
(** Measured + paper rows as markdown (the `table3` doc block). *)
