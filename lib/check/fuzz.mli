(** Cross-allocator differential fuzz harness.

    Replays the same fixed-seed {!Trace} against each of the five
    allocators of the paper's evaluation — Sun, BSD, Lea, the
    Boehm-style collector and a region (via
    {!Regions.Region.region_allocator}) — each wrapped in the
    {!Sanitizer}, and cross-checks every replay against the trivial
    {!Model}:

    - every word the trace wrote reads back unchanged while its block
      is live (content preservation, including across realloc);
    - [usable_size] covers the requested size;
    - live blocks never overlap;
    - {!Alloc.Stats} agree with the model's op counts (frees at the
      point the target documents: immediately for Sun/BSD/Lea, at
      [deleteregion] for the region, untracked for the GC, whose
      frees happen at collection);
    - redzones, poison and the allocator's own [check_heap] hold at
      every checkpoint.

    On failure the trace is shrunk to a minimal reproduction by
    deleting whole block histories and individual poke/free ops while
    the failure persists. *)

type instance = {
  alloc : Alloc.Allocator.t;  (** sanitized *)
  san : Sanitizer.t;
  mem : Sim.Memory.t;
  frees : [ `Exact | `On_finish | `Untracked ];
  finish : unit -> unit;
      (** end-of-trace teardown ([deleteregion] for the region target) *)
}

type target = { label : string; make : Sanitizer.config -> instance }

val targets : unit -> target list
(** sun, bsd, lea, gc, region — fresh simulated machines per call. *)

val find_target : string -> target

type failure = { op : int option; reason : string }
(** [op = Some i] pins the failure to trace operation [i]; [None]
    means an end-of-trace check. *)

val pp_failure : failure Fmt.t

val run_trace :
  ?config:Sanitizer.config -> target -> Trace.t -> (unit, failure) result

val shrink :
  ?config:Sanitizer.config -> target -> Trace.t -> Trace.t * failure
(** [shrink target trace] assumes [trace] fails on [target] and
    greedily minimises it; returns the minimal failing trace and its
    failure.  Only validity-preserving deletions are tried, so the
    result is always a well-formed trace. *)

val fault_plan_injection :
  target -> plan:Fault.Plan.t -> ops:int -> (int * string, string) result
(** Run [ops] allocations under a deterministic {!Fault.Plan}
    installed through {!Fault.Inject}.  The plan may deny, recover
    and deny again (budget walls, one-shot OOM, probabilistic ramps):
    every denial must surface as the documented {!Sim.Memory.Fault},
    the heap must pass [check_heap] after {e every} caught fault, and
    the number of surfaced faults must equal the number of injected
    denials.  Returns that number (possibly zero: a plan may deny
    nothing) and a one-line accounting on success. *)

val bitflip_detection : target -> seed:int -> ops:int -> (string, string) result
(** Drive a {!Fault.Plan.Bit_flip} plan whose corruptions are aimed at
    the sanitizer's redzone words.  Every applied flip must be flagged
    by the next {!Sanitizer.check} (100% detection); the harness then
    repairs the word and continues.  [Error] if any flip goes
    undetected, or none were injected. *)

val selftest : seed:int -> (Trace.t * failure, string) result
(** The deliberately injected bug of the acceptance criteria: a
    wrapper around the sanitized Sun allocator returns every block one
    word late (a classic off-by-one), so the trace's marker writes
    land one word past the block.  The differential harness must catch
    it; returns the shrunk failing trace, or [Error] if the bug went
    undetected. *)

val main : ?progress:(string -> unit) -> traces:int -> seed:int -> unit -> bool
(** Full gate, as run by [repro check]: [traces] differential traces
    per target, fault injection per target, and the off-by-one
    self-test.  Prints a report to stdout; returns whether everything
    passed. *)
