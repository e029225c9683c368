(** The region library: the paper's primary contribution.

    A region is created with {!newregion}; objects are allocated into
    it with {!ralloc} (objects that may contain region pointers),
    {!rarrayalloc} (arrays of such objects) and {!rstralloc}
    (pointer-free data, e.g. strings); all storage in a region is
    reclaimed at once by {!deleteregion}.  This is the interface of
    Figure 2 of the paper.

    The implementation follows section 4:

    - each region has two bump allocators (normal and string) over
      linked lists of 4 KB pages, allocating from the head page
      (Figure 4); deleted regions return their pages to a pool;
    - a page→region map supports {!regionof}; its 8-bytes-per-page
      space cost is included in {!os_bytes};
    - successive region structures are offset by 64 bytes (the L2 line
      size) within their first page to reduce cache conflicts,
      cycling up to a maximum offset of 448;
    - in {e safe} mode each region carries a reference count of the
      {e external} references to it (pointers not stored within the
      region itself).  Counts are exact for the heap and globals
      (write barriers of Figure 5, charged at the paper's instruction
      costs: 16 for global writes, 23 for region writes) and deferred
      for locals: a stack scan makes them exact when {!deleteregion}
      needs them, and frames are unscanned on return (sections
      4.2.1–4.2.3).  [deleteregion] is a no-op returning [false]
      whenever external references remain;
    - in {e unsafe} mode all reference-count maintenance is disabled
      and [deleteregion] always succeeds — the paper's "unsafe"
      configuration. *)

type t

type region = int
(** The address of a region structure, which lives inside the region's
    own first page — so a [region] value is itself a reference into
    the region, exactly as C@'s [Region] type ([struct region @]).
    0 is the null region. *)

(** An lvalue holding a region handle: [deleteregion] takes the
    {e location} of the handle (C@'s [Region *]), nulls it on success,
    and the handle stored there is exempt from the external-reference
    check. *)
type rptr =
  | In_frame of Mutator.frame * int  (** local variable slot *)
  | In_memory of int  (** address of a global or heap word *)

val create :
  ?safe:bool ->
  ?offset_regions:bool ->
  ?eager_locals:bool ->
  Cleanup.t ->
  Mutator.t ->
  t
(** [create cleanups mutator] builds a region library instance.
    [safe] (default [true]) selects reference-counted safe regions.
    [offset_regions] (default [true]) enables the 64-byte region
    structure offsetting; disable it for the cache-conflict ablation.
    [eager_locals] (default [false]) reference-counts every local
    pointer write instead of using the high-water-mark scheme — the
    ablation for the paper's deferred-counting design. *)

val memory : t -> Sim.Memory.t
val mutator : t -> Mutator.t
val cleanups : t -> Cleanup.t
val is_safe : t -> bool
val stats : t -> Alloc.Stats.t
val rstats : t -> Rstats.t

val counts : t -> region -> Rstats.counts option
(** The requested bytes and allocation count of a live region, which
    its deletion releases from {!stats}; [None] if [r] is not a live
    region.  Cost-free. *)

val os_bytes : t -> int
(** Bytes mapped from the OS plus the 8-bytes-per-page cost of the
    page map and page list (paper section 4.1). *)

(** {1 The Figure 2 interface}

    Graceful degradation: every allocation path below asks the
    simulated OS for pages {e before} mutating any region structure,
    so when the OS denies the request — address-space exhaustion, or
    an injected {!Fault.Plan} page-budget/ramp denial — the documented
    {!Sim.Memory.Fault} propagates with the library untouched:
    existing regions remain usable, [deleteregion] still unwinds them,
    and {!check_invariants} passes.  The fault-injection suite
    ([test_fault.ml], [repro faults]) asserts this for every workload
    under every manager. *)

val newregion : t -> region

val ralloc : t -> region -> Cleanup.layout -> int
(** [ralloc t r layout] allocates and clears an object, storing its
    (auto-generated) cleanup function in the word before the returned
    address.  @raise Invalid_argument if the object exceeds a page. *)

val ralloc_custom : t -> region -> Cleanup.id -> int
(** Allocate with an explicitly registered cleanup (for custom
    finalisers). *)

val rarrayalloc : t -> region -> n:int -> Cleanup.layout -> int
(** Array allocation; the element count is stored before the data, as
    in the paper. *)

val rstralloc : t -> region -> int -> int
(** Pointer-free allocation: no cleanup word, contents not cleared.
    Sizes beyond a page are served as dedicated large objects (the
    paper notes the one-page restriction "could be lifted without
    affecting the cost of small allocations"). *)

val regionof : t -> int -> region
(** Region of the object at an address, or 0 for non-region memory. *)

val deleteregion : t -> rptr -> bool
(** Attempt to delete the region named by the handle stored at the
    given location.  In safe mode: scans the stack to make counts
    exact, fails (returns [false], region untouched) if any external
    reference remains, otherwise runs the region scan (cleanups),
    releases all pages, nulls the handle and returns [true].  In
    unsafe mode: always deletes, without cleanups. *)

(** {1 Multi-mutator bump fast path}

    The inline allocation fast path of SBCL's gencgc
    ([gencgc-alloc-region.h]), adapted to regions: each mutator owns an
    {e alloc region} — a host-side cache of one region's normal
    allocator ([free_pointer]/[end_addr] in SBCL terms: current page
    and free offset here) — so the common allocation is a bounds check
    and a bump charged at 2 instructions, with no region-structure
    loads or stores.  The slow path (opening the cache against a
    region, closing it, refilling a full page from the shared page
    pool) does the legacy work.  The page chain in simulated memory
    stays accurate at every refill; the allocation offset and the
    end-of-objects marker are written back when the cache closes,
    which happens automatically before the region is scanned, deleted,
    or handed to another mutator's cache.

    The machinery is {e off} by default: an instance that never calls
    {!enable_bump} takes the legacy path byte-for-byte, and the
    addresses produced with it on are identical to the addresses with
    it off — only the charged instruction stream shrinks. *)

val enable_bump : t -> unit
(** Switch the instance to per-mutator bump allocation (idempotent). *)

val bump_active : t -> bool

val set_mutator : t -> int -> unit
(** [set_mutator t mid] makes [mid] (>= 0) the current mutator.  A
    thread-local-pointer swap: host-side only, charges nothing.  Each
    mutator's alloc region stays open across switches.  Valid with the
    bump machinery off, where it only records the identity. *)

val current_mutator : t -> int

type bump_stats = {
  bs_hits : int;  (** fast-path allocations *)
  bs_opens : int;  (** alloc-region opens (region switches) *)
  bs_closes : int;  (** deferred-state write-backs *)
  bs_refills : int;  (** page refills from the shared pool *)
  bs_contended_refills : int;
      (** refills taken while another mutator also held an open alloc
          region — the page-pool contention signal *)
}

val bump_stats : t -> bump_stats
(** All zero while the machinery is off. *)

val flush_alloc_regions : t -> unit
(** Charged close of every open alloc region (deferred offsets and end
    markers written back).  Deletion does this automatically for the
    region being deleted; call it before reading region structures
    externally at a measurement point. *)

(** {1 Compiler-generated operations} *)

val write_ptr : t -> ?same_region_hint:bool -> addr:int -> int -> unit
(** [write_ptr t ~addr value] performs [*addr = value] where both the
    old and new contents are region pointers — the reference-counting
    write barrier of Figure 5.  Charges 16 instructions for writes to
    global storage and 23 for writes into a region, as measured in the
    paper.  [same_region_hint] asserts that [value] points into the
    region containing [addr] (the compile-time sameregion optimisation
    the paper proposes in section 5.6), reducing the cost to 2
    instructions.  On an unsafe instance this is a plain store. *)

val set_local_ptr : t -> Mutator.frame -> int -> int -> unit
(** Write a region pointer to a local slot.  Free of counting under
    the high-water-mark scheme; with [eager_locals] it adjusts
    reference counts immediately (ablation). *)

val refcount : t -> region -> int
(** Current stored reference count (deferred: excludes unscanned
    frames); cost-free, for tests. *)

val exact_refcount : t -> region -> int
(** Reference count including unscanned frames, computed cost-free;
    for tests and assertions. *)

val live_pages : t -> int
(** Pages currently owned by live regions (excludes the pool). *)

val pool_pages : t -> int

(** {1 Cost-free introspection}

    Used by {!Debug} and by tests; none of these charge simulated
    cost. *)

val live_regions : t -> region list
(** Every live region, in ascending order. *)

val regionof_peek : t -> int -> region
(** As {!regionof} but free of charge. *)

val iter_objects_peek :
  t -> region -> (obj:int -> cleanup:Cleanup.kind -> unit) -> unit
(** Walk the region's [ralloc]/[rarrayalloc] objects exactly as the
    region scan would, without charging; [obj] is the data address
    ([rarrayalloc] objects point at their first element). *)

val check_invariants : t -> unit
(** Validate the internal invariants of every live region (page-map
    consistency, object headers parse and stay in bounds, allocation
    offsets in range, no negative reference count).
    @raise Failure on violation; for tests. *)

val region_allocator : t -> region -> Alloc.Allocator.t
(** [region_allocator t r] is a malloc-shaped view of region [r], used
    by the cross-allocator differential fuzzer ([Check.Fuzz]): [malloc]
    is {!rstralloc} into [r]; [free] releases nothing (regions have no
    per-object free — storage returns when [r] is deleted, which also
    records the frees in [stats]); [usable_size] reports the word-rounded
    requested size; [check_heap] runs {!check_invariants}. *)
