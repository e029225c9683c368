(** The golden cross-check behind [repro replay --verify]: fill the
    report's cells twice, once with a plain {!Matrix} (every cell
    executed) and once with the [~replay:true] matrix that
    [repro experiment --replay] runs, and diff them cell by cell:

    - a cell the replay matrix executes ({!Matrix.replayed_column}
      false: the recording run, or a plain run of a trace nothing
      replays) must agree over {e every} field — the recorder's
      observational-neutrality guarantee, so even [cycles] must match;
    - every replayed cell must agree over the allocator-side fields
      replay promises to reproduce ([alloc_instrs], [refcount_instrs],
      [stack_scan_instrs], [cleanup_instrs], [os_bytes],
      [emu_overhead_bytes], the requested-stats triple, the region
      summary and the outcome summary line).

    An empty diff list is the pass verdict the CI job gates on. *)

type diff = {
  workload : string;
  mode : string;
  field : string;
  full : string;  (** value under full execution *)
  replayed : string;  (** value under replay *)
}

val pp_diff : diff Fmt.t

val verify :
  ?workload:string ->
  ?domains:int ->
  ?progress:(string -> unit) ->
  Workloads.Workload.size ->
  int * diff list
(** [(cells checked, divergences)]; [workload] restricts to one row.
    Cells run in parallel across [domains] (default
    {!Domain.recommended_domain_count}).  An exception from the replay
    matrix's cell (a {!Trace.Replay.Divergence}, a replay or recording
    crash) is reported as a diff on the pseudo-field ["exception"],
    never raised. *)
