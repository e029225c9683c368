(** Generated-trace blocks of EXPERIMENTS.md: [gentraces], the scaling
    table, and [timeline], the heap timelines.

    Synthetic traces ({!Trace.Gen}) are replayed under every allocator
    column at two object counts, once per (column, object count), the
    larger replay with an {!Obs.Timeline} attached; both blocks render
    deterministic simulated metrics from those replays — allocator
    instructions per object, the OS footprint's (non-)growth as the
    trace gets 10x longer over the same bounded live set, and
    sparklines of the footprint over the allocation-event clock.  The
    matrix is used only for its disk cache handle, so the
    multi-megabyte trace artefacts are content-addressed and reused
    across docs runs.  The machine-dependent half of the scaling
    evidence (wall clock, peak RSS) is hostbench's gen-replay workload
    and CI's 10M-object bounded-replay job, not the document. *)

type column
(** One allocator column's replays. *)

val replays : Matrix.t -> column list

val md : column list -> string
(** The [gentraces] block. *)

val timeline_md : column list -> string
(** The [timeline] block. *)
