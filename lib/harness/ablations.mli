(** Ablation benchmarks for the design decisions the paper calls out:

    - deferred local-variable counting (high-water mark) versus eager
      reference counting of every local pointer write (section 4.2.1);
    - the 64-byte offsetting of successive region structures that
      reduces second-level-cache conflicts (section 4.1);
    - the compile-time sameregion optimisation the paper proposes as
      future work (section 5.6);
    - region granularity: how many units of work share one temporary
      region (the paper's lcc uses one region per 100 statements
      "rather than for every statement"). *)

val render : unit -> string
(** One table per ablation (the `ablations` section). *)
