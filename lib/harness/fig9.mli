(** Figure 9 of the paper: execution time per allocator, split into
    the base (application) part and the memory-management part, with
    unsafe regions and the unoptimised ("slow") moss variant as extra
    bars. *)

val render : Matrix.t -> string

val md : Matrix.t -> string
(** The headline table + moss locality line as markdown (the `fig9`
    doc block). *)
