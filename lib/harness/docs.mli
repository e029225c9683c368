(** Generated documentation blocks.

    The numeric sections of EXPERIMENTS.md sit between
    [<!-- generated:ID -->] / [<!-- /generated:ID -->] markers and are
    pure functions of the measured matrix: [regenerate] rewrites every
    marked block from fresh measurements, and {!drift} renders a
    readable line diff when a committed document disagrees with its
    regeneration (the `repro docs --check` CI gate). *)

type section = {
  id : string;  (** the block id, and the name [repro experiment] takes *)
  title : string;  (** the EXPERIMENTS.md heading the block sits under *)
  render : [ `Static of unit -> string | `Matrix of Matrix.t -> string ];
      (** the block body; a [`Static] section reads no matrix cell *)
}

val sections : section list
(** The ten sections of the paper's evaluation, in report order:
    Tables 1-3, Figures 8-11, the ablations, the limitation study and
    the claims check.  [repro experiment ID] prints one under its
    title, [experiment all] prints them all, and each is the
    generated block of the same id. *)

val render_section : Matrix.t -> section -> string

val block_ids : string -> (string * int) list
(** All open markers in a document with their byte offsets, in
    document order (including unknown ids). *)

val regenerate : Matrix.t -> string -> (string, string) result
(** [regenerate m doc] replaces the body of every known marked block
    (the {!sections}, then gentraces, timeline, mutators, bumppath) in
    [doc] with its freshly rendered content.
    Blocks absent from the document are skipped; an unknown block id
    or a missing close marker is an [Error]. *)

val drift : label:string -> current:string -> regenerated:string -> string list
(** [[]] iff the two strings are byte-identical; otherwise a readable
    line-level diff (common prefix/suffix stripped, capped) prefixed
    with [label]. *)

val read_file : string -> string
