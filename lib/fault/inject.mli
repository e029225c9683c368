(** Install a {!Plan} on a simulated memory.

    The injector threads a fault plan through the two
    {!Sim.Memory} hooks: the OOM hook (consulted before any state
    change, so a denied request surfaces as the allocator's documented
    {!Sim.Memory.Fault} with the heap untouched) and the corruption
    hook (fired after a granted request, where the plan's bit-flips
    land in already-mapped heap words).  One [map_pages] call is one
    plan event.

    Installing the empty plan is observationally neutral: no request
    is denied, no word is flipped, and simulated counts are identical
    to a run with no injector at all (proved by the neutrality tests).

    Flips scheduled on a {e denied} event are dropped — the simulated
    OS never touched memory on that path. *)

type t

val with_plan :
  ?pick:(u:float -> bit:int -> (int * int) option) ->
  plan:Plan.t ->
  Sim.Memory.t ->
  (t -> 'a) ->
  'a
(** [with_plan ~plan mem f] installs both hooks, replacing any hooks
    already present, runs [f], and clears them again, with
    {!Fun.protect} so an exception (including the injected
    {!Sim.Memory.Fault}) can never leak hooks into a later run.
    [pick] maps a plan flip (position [u] in [0,1), bit index) to a
    concrete [(addr, bit)] target, or [None] to skip; the default picks
    a uniformly-placed mapped word.  Tests override [pick] to aim flips
    at sanitizer redzones. *)

(** {1 Injection accounting} *)

val events : t -> int
(** Map events observed so far. *)

val denials : t -> int
val flips : t -> int
val pages_granted : t -> int

val applied : t -> (int * int) list
(** Every [(addr, bit)] actually flipped, most recent first — exactly
    what a test must flip back to repair the heap. *)

val summary : t -> string
(** One-line [events/denials/flips/pages] accounting for reports. *)
