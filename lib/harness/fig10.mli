(** Figure 10 of the paper: processor cycles lost to read stalls
    (loads waiting on cache misses) and write stalls (store buffer
    full), per allocator. *)

val moss_stalls : Matrix.t -> string -> int
(** Total stall cycles of moss under the column of the given label
    (see {!Fig9.columns}). *)

val render : Matrix.t -> string
(** The stall table and the moss lines (the `fig10` section). *)
