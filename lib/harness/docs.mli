(** Generated documentation blocks.

    The numeric sections of EXPERIMENTS.md sit between
    [<!-- generated:ID -->] / [<!-- /generated:ID -->] markers and are
    pure functions of the measured matrix: [regenerate] rewrites every
    marked block from fresh measurements, and {!drift} renders a
    readable line diff when a committed document disagrees with its
    regeneration (the `repro docs --check` CI gate). *)

val block_ids : string -> (string * int) list
(** All open markers in a document with their byte offsets, in
    document order (including unknown ids). *)

val regenerate : Matrix.t -> string -> (string, string) result
(** [regenerate m doc] replaces the body of every known marked block
    (table1, table2, table3, fig8..fig11, claims, gentraces, timeline,
    mutators, bumppath) in [doc] with its freshly rendered content.
    Blocks absent from the document are skipped; an unknown block id
    or a missing close marker is an [Error]. *)

val drift : label:string -> current:string -> regenerated:string -> string list
(** [[]] iff the two strings are byte-identical; otherwise a readable
    line-level diff (common prefix/suffix stripped, capped) prefixed
    with [label]. *)

val read_file : string -> string
