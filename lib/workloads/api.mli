(** Unified memory-management facade for the benchmark workloads.

    The paper runs each benchmark against several managers: three
    malloc/free libraries, the Boehm–Weiser collector, safe and unsafe
    regions, and a region-emulation library over malloc (section 5.2).
    A workload written against this facade runs under any of them:

    - [Direct backend] — the workload's malloc/free variant against
      Sun, BSD, Lea or the conservative GC (whose [free] is a no-op);
    - [Emulated backend] — the workload's {e region} variant with
      regions emulated over the given malloc (the paper's "emulation"
      library, used to produce the malloc columns of the originally
      region-based benchmarks mudlle and lcc);
    - [Region { safe }] — the real region library, safe or unsafe.

    A facade holds exactly one manager, chosen by its mode.  It also
    reports what the {e program} requested ({!requested_stats})
    independently of what the manager consumed, which is the
    "requested" bar of Figure 8.  Who keeps that table depends on the
    manager: Sun, BSD and Lea keep it as their own allocator stats;
    the emulation library keeps the emulated columns' (with their
    per-region counts and overhead); the facade keeps one only for the
    collector and the region library. *)

type backend = Sun | Bsd | Lea | Gc

type mode =
  | Direct of backend
  | Emulated of backend
  | Region of { safe : bool }

val mode_name : mode -> string
val all_modes : mode list

type t

type region = int

(** The hooks of the facade's one observer.  The facade calls one hook
    per operation, always {e after} the simulated effect and charging
    nothing, so an observed run's measurements are byte-identical to
    an unobserved one.  [frame] arguments are stack depths (0 = oldest
    frame), the form a trace can name across runs.  [Trace.Record]
    implements a sink that writes the allocation trace; a {!Tracer}
    observer installs one that feeds the tracer.  The type lives here
    so the facade stays below [lib/trace] in the dependency order. *)
type sink = {
  on_malloc : size:int -> addr:int -> unit;
  on_free : addr:int -> unit;
  on_newregion : r:region -> unit;
  on_ralloc : r:region -> layout:Regions.Cleanup.layout -> addr:int -> unit;
  on_rstralloc : r:region -> size:int -> addr:int -> unit;
  on_rarrayalloc :
    r:region -> n:int -> layout:Regions.Cleanup.layout -> addr:int -> unit;
  on_deleteregion : frame:int -> slot:int -> r:region -> ok:bool -> unit;
  on_frame_push : nslots:int -> ptr_slots:int list -> unit;
  on_frame_pop : unit -> unit;
  on_store : addr:int -> int -> unit;
  on_store_block : addr:int -> int array -> unit;
  on_store_bytes : addr:int -> string -> unit;
  on_clear : addr:int -> bytes:int -> unit;
  on_store_ptr : addr:int -> int -> unit;
  on_set_local : frame:int -> slot:int -> int -> unit;
  on_set_local_ptr : frame:int -> slot:int -> int -> unit;
  on_gc_roots : int array -> unit;
      (** One snapshot of every conservative root, in iteration order,
          taken at each collection (the only moment the collector asks). *)
  on_work : int -> unit;  (** After {!work} charged the instructions. *)
  on_set_mutator : mid:int -> bump:bool -> unit;
      (** Mutator handoff (or bump-path enablement), with the bump
          machinery's state at that point so a replay reproduces the
          allocation path exactly. *)
  phase : 'a. string -> (unit -> 'a) -> 'a;
      (** Brackets a {!phase}: must call the closure once and return
          its result. *)
  site : 'a. string -> (unit -> 'a) -> 'a;  (** Likewise for {!site}. *)
}

val null_sink : sink
(** Every hook a no-op; [phase] and [site] just run the closure.  A
    base for sinks that watch a few operations ([{ null_sink with ... }]). *)

(** What {!create} attaches to a run: at most one observer, either an
    observability tracer or any other {!sink}. *)
type observer = Tracer of Obs.Tracer.t | Sink of sink

(** [create mode] builds a fresh simulated machine with the requested
    memory manager.  [offset_regions] selects the region-offsetting
    ablation of {!Regions.Region.create}; it only matters under
    [Region] modes.  A {!Tracer} [observer] is attached to the memory
    before the manager starts, so setup-time page maps are captured
    too, and gets the sink that feeds it the facade's events and the
    counter probe that feeds its time-series sampler; a {!Sink}
    observer is called as it is.  [gc_roots] overrides the collector's
    root set with externally supplied snapshots — one call per
    collection — which is how a replayed run reproduces the roots of
    the recorded program without its bookkeeping. *)
val create :
  ?machine:Sim.Machine.t ->
  ?with_cache:bool ->
  ?offset_regions:bool ->
  ?observer:observer ->
  ?gc_roots:(unit -> int array) ->
  mode ->
  t
val mode : t -> mode

val kind : t -> [ `Malloc | `Region ]
(** Which workload variant should run: [`Malloc] for [Direct],
    [`Region] for [Emulated] and [Region]. *)

val memory : t -> Sim.Memory.t
val mutator : t -> Regions.Mutator.t
val cost : t -> Sim.Cost.t

(** {1 Memory access} *)

val load : t -> int -> int
val store : t -> int -> int -> unit
val load_byte : t -> int -> int

val load_block : t -> int -> int -> int array
(** Bulk word load; same simulated cost as a {!load} loop. *)

val store_block : t -> int -> int array -> unit
(** Bulk word store; same simulated cost as a {!store} loop. *)

val store_bytes : t -> int -> string -> unit
(** Bulk byte copy of a host string into simulated memory; same
    simulated cost as a {!Sim.Memory.store_byte} loop. *)

val clear : t -> int -> int -> unit
(** [clear t addr bytes] zeroes a word-aligned range at one
    instruction per word ({!Sim.Memory.clear}).  Workloads use this
    rather than reaching for the memory directly so the write is
    visible to an attached sink. *)

val store_ptr : t -> addr:int -> int -> unit
(** Pointer store: the write barrier of Figure 5 under safe regions, a
    plain store everywhere else. *)

val work : t -> int -> unit
(** Charge computational (base) work. *)

(** {1 Frames} *)

val with_frame :
  t -> nslots:int -> ptr_slots:int list -> (Regions.Mutator.frame -> 'a) -> 'a

val add_roots : t -> ((int -> unit) -> unit) -> unit
(** Register an extra conservative-root iterator (the addresses a
    workload's own bookkeeping keeps live — the stand-in for C locals
    the collector would scan).  No effect outside GC modes. *)

val set_local : t -> Regions.Mutator.frame -> int -> int -> unit
val set_local_ptr : t -> Regions.Mutator.frame -> int -> int -> unit
val get_local : Regions.Mutator.frame -> int -> int

(** {1 Mutator identity}

    Multi-mutator scheduling support ({!Regions.Sched}): the scheduler
    announces handoffs here so the region library can switch its
    per-mutator alloc region and traces can carry the identity.  Both
    calls are host-side scheduling state — they charge nothing beyond
    the region library's documented bump-path costs — and both are
    recorded, so replays reproduce the allocation path exactly. *)

val set_mutator : t -> int -> unit
(** Make [mid] (>= 0) the current mutator.  Under [Region] modes this
    switches the region library's current alloc region; elsewhere it
    only tracks the identity. *)

val enable_bump : t -> unit
(** Switch [Region] modes to the per-mutator bump allocation fast path
    ({!Regions.Region.enable_bump}); a no-op elsewhere.  Idempotent. *)

(** {1 malloc/free (Direct modes)} *)

val malloc : t -> int -> int
val free : t -> int -> unit
(** Logical deallocation: calls the allocator's [free] under Sun, BSD
    and Lea; is free of charge under the collector (the paper disables
    frees); and updates requested-bytes accounting everywhere.  A free
    the allocator rejects ([Alloc.Allocator.Invalid_free]) leaves the
    requested stats as they were. *)

(** {1 Regions (Emulated and Region modes)} *)

val newregion : t -> region
val ralloc : t -> region -> Regions.Cleanup.layout -> int
val rstralloc : t -> region -> int -> int
val rarrayalloc : t -> region -> n:int -> Regions.Cleanup.layout -> int

val deleteregion : t -> Regions.Mutator.frame -> int -> bool
(** [deleteregion t frame slot] deletes the region whose handle is in
    the given local slot.  Under real safe regions this can fail
    (returns [false]); under unsafe and emulated regions it always
    succeeds. *)

(** {1 Measurement} *)

val requested_stats : t -> Alloc.Stats.t
(** What the program asked for, independent of manager overheads.
    Under [Direct Sun], [Direct Bsd] and [Direct Lea] this is the
    allocator's own [stats] (its [os_bytes] included), since that
    table records exactly the program's mallocs and frees: each block
    has one address-table entry, not two.  Under [Emulated] it is
    {!Regions.Emulation.requested}, which counts region objects by
    group.  Under the collector, whose frees land at sweeps, and under
    [Region], whose objects leave it only after the sink has seen
    their delete, it is the facade's own table. *)

val os_bytes : t -> int
(** Memory requested from the OS by the manager (Figure 8), including
    the region page-map overhead where applicable. *)

val region_rstats : t -> Regions.Rstats.t option
(** Region statistics under [Region] modes (Table 2). *)

val emulation_overhead_bytes : t -> int
(** Bytes attributable purely to emulation (per-object links and
    region records) at peak, for the "w/o overhead" rows of Table 3 /
    Figure 8.  Zero in other modes. *)

val allocator : t -> Alloc.Allocator.t option
(** The malloc the manager runs on: the allocator itself under
    [Direct], the malloc the regions are emulated over under
    [Emulated]; [None] under [Region].  Its [stats] count what that
    malloc handed out, emulation records and links included. *)

val region_lib : t -> Regions.Region.t option

(** {1 Observability} *)

val phase : t -> string -> (unit -> 'a) -> 'a
(** Bracket a workload phase with trace markers; a no-op (beyond the
    closure call) with no observer attached. *)

val site : t -> string -> (unit -> 'a) -> 'a
(** Run [f] under an allocation/attribution site tag. *)
