(** Recording: run a workload once with a recording
    {!Workloads.Api.sink} attached and stream its allocation trace to
    disk.

    One workload yields up to two traces, one per {e trace variant} —
    the set of allocator columns that execute the same API-level
    operation stream from the same address space:

    - ["malloc"]: the malloc/free variant, recorded under [Direct Gc]
      (the one direct column whose replay needs heap contents and
      roots, so recording there makes the raw pokes and root snapshots
      valid verbatim).  Serves every [Direct] column.
    - ["emu"]: the region variant over emulation, recorded under
      [Emulated Gc] for the same reason.  Serves every [Emulated]
      column (region-only workloads).
    - ["region"]: the region variant, recorded under safe regions.
      Serves [Region {safe}] and [Region {unsafe}], which allocate at
      identical addresses.

    Recording is pure observation: the recorded run's measurements are
    byte-identical to an unrecorded run, so the recording cell doubles
    as that mode's full-execution result. *)

val variant_of_mode : Workloads.Api.mode -> string
(** ["malloc"], ["emu"] or ["region"] — the trace a replay of this
    mode reads. *)

val variants_for : Workloads.Workload.spec -> string list
(** The variants a workload records, the default first: ["malloc"] and
    ["region"], or ["emu"] and ["region"] for a region-only one. *)

val recording_mode : string -> Workloads.Api.mode
(** The mode a variant records under.  @raise Invalid_argument on an
    unknown variant. *)

val record :
  out:string ->
  variant:string ->
  Workloads.Workload.spec ->
  Workloads.Workload.size ->
  Workloads.Results.t
(** [record ~out ~variant spec size] runs [spec] under
    {!recording_mode}[ variant] with a recorder attached, commits the
    trace to [out] (atomic tmp+rename) and returns the run's full
    results.  On any exception the temporary file is removed and the
    exception re-raised. *)
