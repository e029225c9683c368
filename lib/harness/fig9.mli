(** Figure 9 of the paper: execution time per allocator, split into
    the base (application) part and the memory-management part, with
    unsafe regions and the unoptimised ("slow") moss variant as extra
    bars. *)

val headlines : Matrix.t -> (string * (float * float * float)) list
(** Per benchmark, in percent: safe and unsafe regions against the
    best of the four malloc/GC columns, and the cost of safety (safe
    against unsafe regions). *)

val moss_speedup : Matrix.t -> float
(** How much faster the two-region moss runs than the single-region
    ("Slow") variant, in percent of the latter's cycles. *)

val columns : Matrix.t -> Workloads.Workload.spec -> (string * Workloads.Results.t) list
(** A benchmark's six columns by label (Sun, BSD, Lea, GC, Reg,
    Unsafe); moss's also hold its single-region variant as "Slow". *)

val column_table : Matrix.t -> what:string -> (Workloads.Results.t -> string) -> string
(** A markdown table with one row per benchmark and the given cell of
    each of the six columns, headed "Sun [what]" etc.; moss's Slow
    variant follows moss as a row of its own, its cell under Reg. *)

val render : Matrix.t -> string
(** The headline table, the moss locality line and the per-allocator
    cycles with their memory-management share (the `fig9` section). *)
