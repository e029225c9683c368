(** Registry of the six benchmark workloads. *)

type size = Quick | Full
(** [Quick] for tests; [Full] for the benchmark harness (still
    laptop-scale — the simulator executes tens of millions of
    simulated cycles per run). *)

type spec = {
  name : string;
  description : string;
  region_only : bool;
      (** mudlle and lcc were region-based programs: their malloc
          numbers come from the emulation library (paper section
          5.2) *)
  run : Api.t -> size -> string;
      (** Run and return a deterministic one-line outcome summary.

          Under fault injection ({!Fault.Inject} on the api's memory)
          a denied page request propagates out of [run] as the
          documented [Sim.Memory.Fault]: workloads allocate through
          the facade and keep no state that the unwind could corrupt,
          so the manager's heap checks still pass afterwards — the
          graceful-degradation contract [repro faults] enforces. *)
}

val check_cell : spec -> Api.mode -> (unit, string) result
(** Whether [spec] runs under [mode]: a direct malloc mode of a
    [region_only] workload is an [Error] naming the emulated mode to
    use instead.  Every other pair is [Ok]. *)

val all : spec list
val find : string -> spec

(** The cell runner's result: the facade as the run left it, and the
    summary line or what [spec.run] raised. *)
type run = {
  api : Api.t;
  workload : string;
  outcome : (string, exn * Printexc.raw_backtrace) result;
  injected : Fault.Inject.t option;  (** when a plan ran *)
}

val run :
  ?observer:Api.observer -> ?plan:Fault.Plan.t -> spec -> Api.mode -> size -> run
(** The one cell runner, and the only place [spec.run] is applied:
    create an [Api.t] for [mode] with the cache simulator on and
    [observer] attached, and run the workload with [plan] installed
    through {!Fault.Inject} around it (off again either way).  A
    {!Api.Tracer} observer is {!Obs.Tracer.finish}ed after the run.  A
    pair {!check_cell} rejects raises [Invalid_argument] with its
    message before any [Api.t] exists. *)

val collect : run -> Results.t
(** The run's measurements, or its exception re-raised. *)

val run_collect : spec -> Api.mode -> size -> Results.t
(** [collect (run spec mode size)]. *)

val modes_for : spec -> Api.mode list
(** The paper's allocator columns for this workload: Sun, BSD, Lea, GC
    (direct or emulated depending on [region_only]), safe regions,
    unsafe regions. *)

val moss_slow : spec
(** The unoptimised (one-region) moss variant, shown as the extra
    "slow" bar in Figures 9 and 10. *)

val extras : spec list
(** Workloads outside the paper's benchmark matrix. *)

val server_params : int -> size -> Server.params
(** The parameters the [server-N] specs run with: [Server]'s defaults
    scaled so every mutator serves the same per-mutator quota at any
    N, with a per-N seed.  Exposed so the docs blocks and the bench
    harness measure exactly the matrix cells' scenarios. *)
