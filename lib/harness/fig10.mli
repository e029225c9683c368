(** Figure 10 of the paper: processor cycles lost to read stalls
    (loads waiting on cache misses) and write stalls (store buffer
    full), per allocator. *)

val render : Matrix.t -> string

val md : Matrix.t -> string
(** The stall table + moss ratio line as markdown (the `fig10` doc
    block). *)
