(** The mudlle benchmark: a byte-code compiler for a scheme-like
    language, compiling the same generated source file repeatedly (the
    paper compiles a 500-line file 100 times).

    The original mudlle already used unsafe regions, so — like the
    paper — this workload only has a region variant; its malloc
    numbers come from running it under the emulation library
    ([Api.Emulated]).

    Region structure (paper section 5.1): "one region holds the
    abstract syntax tree of the file being compiled and one region is
    created to hold the data structures needed to compile each
    function."  Values are tagged words: odd values are immediates,
    aligned addresses are cons cells, symbols or code vectors in the
    simulated heap. *)

type params = {
  functions : int;  (** function definitions per generated file *)
  body_depth : int;  (** expression-tree depth of each body *)
  repeats : int;  (** how many times the file is compiled *)
  seed : int;
}

val default_params : params
val large_params : params

type outcome = {
  functions_compiled : int;
  code_words : int;  (** total bytecode emitted *)
  checksum : int;  (** digest of all emitted code, for determinism *)
}

val run : Api.t -> params -> outcome
(** @raise Invalid_argument under [Api.Direct] modes (use [Emulated],
    as the paper does). *)
