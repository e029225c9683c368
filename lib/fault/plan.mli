(** Deterministic fault plans.

    A plan is a pure, seed-reproducible schedule of injected failures,
    evaluated at the simulated machine's OS-interaction points: every
    {!Sim.Memory.map_pages} request is one {e event}.  Given the same
    plan (clauses + seed) and the same event history, {!decision}
    returns the same answers in any process, on any domain, in any
    call order — which is what makes a reported fault replayable from
    its [--plan]/[--seed] pair alone.

    Clauses compose: a plan denies a request if {e any} clause denies
    it, and accumulates the bit-flips of every corruption clause. *)

type clause =
  | Page_budget of int
      (** Grant at most this many pages in total, then deny every
          further request: the classic rlimit / cgroup memory wall. *)
  | Oom_at of int
      (** Deny exactly the [n]th map request (1-based), then recover:
          a one-shot transient failure. *)
  | Denial_ramp of { start : float; slope : float }
      (** Deny event [e] with probability
          [min 1 (start + slope * e)]: memory pressure that builds
          over the run, with seed-deterministic coin flips. *)
  | Bit_flip of { every : int; bit : int }
      (** After every [every]th granted request, flip bit [bit] of one
          seed-chosen mapped heap word (latent corruption the
          sanitizer must catch). *)

type t

val make : ?seed:int -> clause list -> t
(** [seed] defaults to 1. *)

val none : ?seed:int -> unit -> t
(** The empty plan: never denies, never corrupts.  Installing it must
    be observationally neutral. *)

val seed : t -> int
val clauses : t -> clause list
val is_empty : t -> bool

val of_string : ?seed:int -> string -> (t, string) result
(** Parse a comma-separated clause spec, the [--plan] syntax:
    ["budget=N"], ["oom-at=N"], ["ramp=START:SLOPE"],
    ["flip=EVERY:BIT"] — e.g. ["budget=64,flip=8:3"]. *)

val to_string : t -> string
(** Round-trips through {!of_string} (the seed travels separately). *)

type flip = { u : float;  (** position in [0,1) over the mapped space *)
              bit : int }

type decision = { deny : bool; flips : flip list }

val decision : t -> event:int -> pages:int -> pages_before:int -> decision
(** [decision t ~event ~pages ~pages_before] evaluates the plan for
    map event [event] (1-based) requesting [pages] pages when
    [pages_before] pages were already granted.  Pure: independent
    calls with equal arguments return equal decisions. *)
