(** The [bumppath] generated block of EXPERIMENTS.md: the bump
    allocation fast path against the legacy region path on the same
    server scenario.

    Every column is a simulated count from deterministic engine runs,
    so [repro docs --check] is the same on any host.  Host time of the bump path is hostbench's [bumppath]
    workload. *)

val md : Matrix.t -> (int -> Workloads.Server.outcome) -> string
(** [md m server] is the [bumppath] block body.  The bump-on side is
    the server-4 scenario: [server 4] ({!Mutators.servers}) for its
    engine counters and the [server-4] matrix cell for its charged
    instructions; only the legacy side is run here.  Fails if the bump
    path changed any allocation address. *)
