(** On-failure triage bundles.

    When a run under [repro faults --quarantine] does not degrade
    gracefully, the harness quarantines everything a human (or a later
    session) needs to reproduce and diagnose it, under
    [<quarantine>/<workload>-<mode>/]:

    - [error.txt] — workload, mode, the error and the outcome of the
      diagnostic re-run;
    - [heap.txt] — the heap verdicts of that re-run's {!Faultrun}
      outcome: the manager's [check_heap] / region invariants after
      the failure (the sanitizer-style report: is the heap still
      walkable?);
    - the {!Obs} artefact family of the diagnostic re-run
      ([events.bin], [trace.json], [heap.csv], [sites.txt], [folded]),
      captured up to the failure point.

    Bundle writing never raises — a failing disk must not turn a cell
    failure into a harness crash. *)

val write_bundle :
  dir:string ->
  workload:string ->
  mode:string ->
  last_error:string ->
  plan:Fault.Plan.t ->
  retrace:Workloads.Workload.spec * Workloads.Api.mode * Workloads.Workload.size ->
  string option
(** Returns the bundle directory, or [None] if even [error.txt] could
    not be written.  [retrace] is the cell of the diagnostic re-run,
    which is {!Faultrun.run} under {!Tracefiles.with_tracer}: [plan] is
    reinstalled during it so injected failures reproduce in the
    captured artefacts. *)
