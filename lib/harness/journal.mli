(** Crash-consistent journal of the [repro serve] daemon.

    An append-only, line-oriented record of completed cells: one
    "cell4" line per served cell, flushed {e and} fsync'd before the
    cell is reported complete, so a daemon killed at any instant
    leaves a journal whose complete lines are exactly the cells that
    finished.  (A batch run needs no journal: the durable
    {!Results.Cache} is its resume store.)

    A daemon serves arbitrary request tuples, so each line carries the
    whole (workload, mode, size, seed, plan) key {e plus the build id
    of the binary that measured the cell}, and replays into the
    content-addressed cache on restart — recovery must skip entries
    from other builds, or a rebuild's cache-invalidation invariant
    would be silently defeated by replaying stale measurements.

    Torn writes are expected (the process can die mid-line): every
    line carries its payload length and an FNV-1a checksum, and a line
    that fails either check is {e skipped}, never trusted.  Lines with
    an unknown tag (buildless "cell3" lines from older builds, say)
    count as damage too and are re-run.  The payload is the versioned
    [Results.Cell] measurement JSON, not [Marshal]. *)

type keyed = {
  k_build : string;  (** build id of the binary that measured the cell *)
  k_workload : string;
  k_mode : string;
  k_size : string;
  k_seed : int;
  k_plan : string;
  k_result : Workloads.Results.t;
}

val append_keyed : out_channel -> keyed -> unit
(** Serialise, write one line, flush and [fsync].  The entry is
    durable when [append_keyed] returns. *)

val load_keyed : string -> keyed list * int
(** Valid keyed entries in file order, plus damaged lines skipped.
    Missing file = empty journal. *)

val keyed_of_line : string -> keyed option
(** Parse and validate one line ([None] = damaged). *)

val line_of_keyed : keyed -> string
(** The exact line [append_keyed] writes, without the trailing
    newline. *)
