(** A collection of result {!Cell}s — the machine-readable backbone
    every table, figure and generated doc block reads from — with a
    deterministic single-file JSON form used for the committed golden
    results (`results/golden-quick.json`) and for ad-hoc export.

    Cells are keyed by (workload, mode) and keep insertion order, so a
    store filled in matrix order serialises in matrix order and the
    golden file diffs stay stable. *)

type t

val create : unit -> t

val add : t -> Cell.t -> unit
(** Replaces an existing (workload, mode). *)

val find : t -> workload:string -> mode:string -> Cell.t option
val mem : t -> workload:string -> mode:string -> bool
val length : t -> int

val to_list : t -> Cell.t list
(** Insertion order. *)

val of_list : Cell.t list -> t

val to_string : t -> string

val load : string -> (t, string) result

val diff : expected:t -> actual:t -> string list
(** Human-readable mismatch lines for the golden gate: one per cell
    missing from either side and one per measurement field that
    disagrees (as a field path), provenance excluded.  Empty means the
    stores agree on every measurement. *)
