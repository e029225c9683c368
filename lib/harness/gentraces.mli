(** Generated-trace scaling: the [gentraces] block of EXPERIMENTS.md.

    Replays synthetic traces ({!Trace.Gen}) at two object counts under
    every allocator column and renders the deterministic simulated
    metrics — allocator instructions per object and the OS footprint's
    (non-)growth as the trace gets 10x longer over the same bounded
    live set.  Uses the matrix only for its disk cache handle, so the
    multi-megabyte trace artefacts are content-addressed and reused
    across docs runs.  The machine-dependent half of the scaling
    evidence (wall clock, peak RSS) is hostbench's gen-replay workload
    and CI's 10M-object bounded-replay job, not the document. *)

val columns : (string * Workloads.Api.mode) list
(** The allocator columns replayed from generated traces, as
    [(generator variant, mode)] — shared with the heap-timeline block
    ({!Timelines}) so both sections describe the same comparison. *)

val md : Matrix.t -> string
