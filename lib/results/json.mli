(** Minimal JSON used by the results store, the cell cache and the
    golden gate.  No external dependency: the repo's rule is to stub
    or build what the toolchain lacks.

    Printing is deterministic — same value, same bytes — because
    golden files and cache entries are compared bytewise: fields keep
    their build order, floats print with [%.17g] (which round-trips
    every finite double), and integers stay integers. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** [indent] (default true) pretty-prints with two-space indentation
    and a trailing newline; [false] prints one compact line. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; anything but whitespace after it is an
    error.  Numbers without [./e/E] decode as [Int] (falling back to
    [Float] on native-int overflow); [\uXXXX] escapes are accepted for
    ASCII only, which covers everything this library emits. *)

(** {1 Accessors} *)

val member : string -> t -> t option
val to_int : t -> int option

val to_float : t -> float option
(** Accepts [Int] too. *)

val to_str : t -> string option
val to_list : t -> t list option

val diff :
  ?ignore_keys:string list -> t -> t -> (string * string * string) list
(** [diff a b] lists [(path, in_a, in_b)] for every leaf where the two
    values disagree, in field order.  [ignore_keys] prunes object keys
    (at any depth) from the comparison — the golden gate uses it to
    skip provenance, which legitimately differs between builds. *)

