(** Traced runs that leave their artefacts on disk.

    One traced (workload, mode) cell produces, under the output
    directory, a [<workload>-<mode>] family of files:

    - [.events.bin] — the complete binary event stream ({!Obs.Spill}
      format; the tracer writes each event here as it happens);
    - [.trace.json] — Chrome [trace_event] JSON built by replaying the
      spill file, viewable in Perfetto or [chrome://tracing];
    - [.heap.csv] — the time-series sampler rows, one per
      {!Obs.Sampler} default interval of 50 000 simulated cycles
      (live bytes, mapped bytes,
      instruction/stall/cache counters per interval);
    - [.sites.txt] — the interned site ids plus the top-sites table;
    - [.folded] — folded stacks for [flamegraph.pl] / [inferno].

    [repro run W M --trace DIR] writes one cell's family, and
    [repro experiment --trace DIR] one per executed cell. *)

type files = {
  dir : string;
  events_bin : string;
  trace_json : string;
  heap_csv : string;
  sites_txt : string;
  folded : string;
}

val mkdir_p : string -> unit
(** [mkdir -p]: create a directory and its parents, tolerating races
    with concurrent creators. *)

val stem : Workloads.Workload.spec -> Workloads.Api.mode -> string
(** ["<workload>-<mode>"], the artefact basename for one cell. *)

val write_file : string -> string -> unit
(** [write_file path contents], atomically: the contents go to a temp
    file beside [path] that is renamed over it once written.  On any
    failure the channel is closed, the temp file removed and [path]
    left as it was. *)

val with_tracer :
  out:string ->
  Workloads.Workload.spec ->
  Workloads.Api.mode ->
  (Obs.Tracer.t -> 'a) ->
  'a * Obs.Tracer.t * files
(** [with_tracer ~out spec mode f] calls [f] with a fresh tracer that
    writes every event to the cell's [.events.bin], then finishes the
    tracer and writes the rest of the artefact family under [out]
    (created if missing).  [f] runs the cell itself; if it raises, the
    exception propagates and [.events.bin], closed, holds every event
    emitted before the raise; no other artefact is written. *)

val run_traced :
  out:string ->
  Workloads.Workload.spec ->
  Workloads.Api.mode ->
  Workloads.Workload.size ->
  Workloads.Results.t * Obs.Tracer.t * files
(** Run one cell with tracing enabled, writing the artefact family
    under [out] (created if missing).  The returned results carry the
    same simulated counts as an untraced run — observation never
    perturbs the simulation (proved by the test suite). *)
