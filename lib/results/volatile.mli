(** Volatile JSON keys: fields that legitimately differ between two
    honest runs of the same code.

    Centralised so the byte-diff consumers stay in agreement: the
    golden gates and [repro results compare] ({!Store.diff}) prune
    {!provenance} cell-by-cell. *)

val provenance : string list
(** Identity keys pruned from per-cell golden diffs: the cell payload
    under these differs between builds but never between honest runs
    of one build. *)
