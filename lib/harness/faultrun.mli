(** Run one workload cell under a deterministic fault plan.

    This is the engine behind [repro faults] and its triage re-runs
    ({!Triage}): run the cell through {!Workloads.Workload.run} with
    the {!Fault.Plan} installed, and report how it degraded.

    {e Graceful degradation} means the documented contract held:
    either the workload completed despite the plan, or an injected
    denial surfaced as the documented {!Sim.Memory.Fault} — and in
    both cases every heap structure of the cell's memory manager still
    passes its consistency walk afterwards.  Any other exception, or a
    broken heap, is a robustness bug and makes the outcome
    non-graceful (the CLI exits non-zero and quarantines a triage
    bundle). *)

type status =
  | Completed of string  (** ran to completion; the workload summary *)
  | Faulted of string
      (** an injected denial surfaced as the documented
          {!Sim.Memory.Fault} — the expected recoverable outcome *)
  | Crashed of string  (** any other exception: a robustness bug *)

type outcome = {
  workload : string;
  mode : string;
  plan : string;  (** {!Fault.Plan.to_string} of the plan that ran *)
  seed : int;
  status : status;
  heap : (string * string * bool) list;
      (** post-run verdict per checkable manager structure:
          (name, report, ok) *)
  injection : string;
      (** {!Fault.Inject.summary}: map_pages requests the plan saw,
          denials, flips, pages actually granted *)
}

val graceful : outcome -> bool
(** Completed or cleanly faulted, {e and} every heap check passed. *)

val run :
  ?observer:Workloads.Api.observer ->
  plan:Fault.Plan.t ->
  Workloads.Workload.spec ->
  Workloads.Api.mode ->
  Workloads.Workload.size ->
  outcome
(** [run ~plan spec mode size] runs the cell through
    {!Workloads.Workload.run} with [plan] installed and [observer]
    attached, classifies its outcome, and walks every checkable
    structure of the cell's manager ([check_heap] for the allocators,
    {!Regions.Region.check_invariants} for the region library) with
    cost-free reads for [heap].  A pair
    {!Workloads.Workload.check_cell} rejects raises [Invalid_argument]. *)

val pp_outcome : outcome Fmt.t
(** Multi-line human report, as printed by [repro faults]. *)
