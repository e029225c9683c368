(** The [bumppath] generated block of EXPERIMENTS.md: the bump
    allocation fast path against the legacy region path on the same
    server scenario.

    Every column is a simulated count, recomputed from a deterministic
    engine run on every render, so [repro docs --check] is the same on
    any host.  Host time of the bump path is hostbench's [bumppath]
    workload. *)

val md : Matrix.t -> string
(** The [bumppath] block body.  Fails if the bump path changed any
    allocation address. *)
