(** Bytecode interpreter whose runtime is the region library.

    The VM plays the role of the paper's compiled C@ code: locals live
    in {!Regions.Mutator} frames carrying region-pointer liveness
    maps, stores of region pointers run the Figure 5 write barriers,
    [deleteregion] triggers the stack scan, and returning into a
    scanned frame unscans it.  Heap data lives in the simulated
    memory, so creg programs produce real cache and cost
    measurements. *)

type t

exception Fault of string
(** Runtime errors: null dereference, division by zero, step limit. *)

type outcome = {
  exit_value : int;  (** return value of [main] *)
  output : int list;  (** values printed, in order *)
}

val create :
  ?max_steps:int -> Regions.Region.t -> Bytecode.program -> t
(** [create lib prog] prepares [prog] to run against region library
    [lib] (safe or unsafe) and its mutator.  creg globals occupy the
    first global slots of the mutator.  [max_steps] (default 50
    million) bounds execution. *)

val run : t -> outcome
(** Execute [main].  @raise Fault on runtime errors. *)

val run_source :
  ?safe:bool -> ?max_steps:int -> string -> outcome * Regions.Region.t
(** Convenience: compile and run a source string on a fresh simulated
    machine; returns the outcome and the region library for
    inspection. *)
