(** Replay: drive any allocator column from a recorded trace.

    [run] re-executes a trace's allocator-visible operation stream —
    mallocs, frees, region operations, frames, pointer-valued stores —
    against a fresh facade in the requested mode, skipping the mutator
    compute that produced it.  Allocator-owned work (allocation paths,
    write barriers, stack scans, region cleanup, collections) runs for
    real against the simulated machine, so every allocator-side
    measurement — [alloc_instrs], [refcount_instrs],
    [stack_scan_instrs], [cleanup_instrs], [os_bytes],
    [emu_overhead_bytes], the requested-stats triple and the region
    summary — is count-equivalent to the full run ([repro replay
    --verify] checks this over the whole matrix).  Mutator-side
    numbers ([cycles], [base_instrs], stalls) are {e not} reproduced:
    figures that need them take full execution.

    Records are decoded through {!Format.dispatch}: each common record
    reaches its handler here as immediate ints, and no [record] value
    is built for it, so on the Sun, BSD and Lea columns a replay
    allocates nothing per record.

    Heap contents are reproduced by cost-free pokes when the replay
    shares the recording's address space (self-replay; safe ⇄ unsafe
    regions), which is what keeps the conservative collector's
    scanning — fed the recorded per-collection root snapshots —
    deterministic.  Across address spaces (a gc-recorded trace
    replayed under Sun/BSD/Lea) contents are unused and only
    pointer-classified values are translated. *)

exception Divergence of string
(** The replayed allocator disagreed with the trace (a [deleteregion]
    result flipped, a collection happened with no recorded roots, a
    malformed frame structure...).  Indicates the replay-equivalence
    assumption broke — a bug, not an input error. *)

val run :
  ?timeline:Obs.Timeline.t ->
  Format.reader ->
  Workloads.Api.mode ->
  Workloads.Results.t
(** [run reader mode] replays the trace against [mode] and collects
    results, carrying the recorded run's summary line.

    The replay's machine runs without the cache simulator, which only
    prices accesses into cycles and stalls — mutator-side numbers a
    replay does not reproduce anyway.  Every allocator-side count is
    identical without it, and replays run substantially faster.

    [timeline] attaches a heap profiler ({!Obs.Timeline}): the replay
    installs a probe over the facade's requested stats, the manager's
    holdings and the simulated OS, and clocks it on every allocation
    event.  Held bytes are usable sizes (cost-free peeks) under
    Sun/BSD/Lea, uncollected bytes under the collector, and
    word-rounded requested bytes under region/emulated columns — all
    simulated quantities, so the resulting curve is byte-identical
    across hosts.  Omitted, the replay touches no profiling state at
    all.
    @raise Invalid_argument when [mode] is not served by the trace's
    variant (see {!Record.variant_of_mode}). *)
