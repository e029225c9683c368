(** The [mutators] generated block of EXPERIMENTS.md: the server-N
    scaling table (scheduler handoffs, interleave hash, fairness
    spread, bump/contention counters alongside the measured matrix
    cells) and the per-mutator fairness table with live-bytes
    sparklines.  Fully simulated and deterministic, so it sits behind
    [repro docs --check]. *)

val servers : Matrix.t -> int -> Workloads.Server.outcome
(** [servers m n] is the engine run behind the scheduler-side columns
    for [n] mutators — exactly the params the [server-n] matrix cell
    runs with, on a fresh machine — run on first demand and shared by
    every later call of the same [servers m]. *)

val md : Matrix.t -> (int -> Workloads.Server.outcome) -> string
(** [md m (servers m)] renders the block. *)
