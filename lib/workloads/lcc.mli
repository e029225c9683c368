(** The lcc benchmark: a one-pass C-like compiler front end, standing
    in for the paper's modified lcc compiling a 6000-line C file.

    Like the original (which used Hanson's arenas), this workload is
    region-based only; its malloc numbers come from the emulation
    library, exactly as in the paper.

    Structure, following the paper's port notes (section 5.1):
    - identifier strings are "allocated individually rather than in
      blocks", into a permanent symbol-table region;
    - tokens, AST nodes and emitted code live in a statement region
      that is rotated "for every hundred statements compiled rather
      than for every statement". *)

type params = {
  functions : int;
  stmts_per_function : int;
  repeats : int;
  stmts_per_region : int;  (** the paper uses 100 *)
  seed : int;
}

val default_params : params
val large_params : params

type outcome = {
  statements : int;
  triples : int;  (** intermediate-code records emitted *)
  checksum : int;
}

val run : Api.t -> params -> outcome
(** @raise Invalid_argument under [Api.Direct] modes. *)
