(** Tables 2 and 3 of the paper: allocation behaviour of each
    benchmark with regions (Table 2) and with malloc (Table 3),
    measured on this repository's workloads, with the paper's reported
    values shown alongside.  Each is a pure function of the stored
    results: the section `repro experiment` prints and the block
    `repro docs --check` gates. *)

val render_table2 : Matrix.t -> string
(** Measured + paper rows (the `table2` section). *)

val render_table3 : Matrix.t -> string
(** Measured + paper rows (the `table3` section). *)
