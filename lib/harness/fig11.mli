(** Figure 11 of the paper: the cost of safety for each benchmark,
    broken into its three parts — running cleanup functions when
    regions are deleted, scanning the stack on [deleteregion], and
    maintaining reference counts on region-pointer writes. *)

val render : Matrix.t -> string

val md : Matrix.t -> string
(** The decomposition table as markdown (the `fig11` doc block). *)
