(** Simulated 32-bit byte-addressable memory.

    All allocators, their metadata, and all workload data structures
    live here, exactly as a C program's heap lives in its address
    space.  Memory is handed out in 4 KB pages ({!map_pages}), modelling
    requests to the operating system; {!os_bytes} is therefore the
    "memory requested from the OS" measured in Figure 8 of the paper.

    Every access charges one instruction to the attached {!Cost.t} and,
    when a cache is attached, simulates the cache hierarchy.  Address 0
    is never mapped, so 0 serves as NULL.

    This unit also holds the cache and store-buffer model itself
    ({!Cache_impl}, {!Store_buffer_impl}; {!Cache} and {!Store_buffer}
    re-export them).  Dune's dev profile compiles with [-opaque], so no
    call into another unit is inlined; keeping the model here lets
    every access on the UltraSparc geometry (both levels direct-mapped)
    run the instruction charge, both probes, the fills and the store
    buffer inline, with no call. *)

(** The implementation of {!Store_buffer}; documented there. *)
module Store_buffer_impl : sig
  type t

  val create : depth:int -> t
  val push : t -> now:int -> latency:int -> int
  val length : t -> int
  val last_completion : t -> int
  val reset : t -> unit
end

(** The implementation of {!Cache}; documented there. *)
module Cache_impl : sig
  type t

  val create : Machine.t -> Cost.t -> t
  val read : t -> int -> unit
  val write : t -> int -> unit
  val l1_hits : t -> int
  val l1_misses : t -> int
  val l2_misses : t -> int
  val stores : t -> int
end

type t

exception Fault of string
(** Raised on invalid accesses (unmapped, unaligned, out of range). *)

val create : ?machine:Machine.t -> ?with_cache:bool -> unit -> t
(** [create ()] returns a fresh memory with its own cost accounting.
    [with_cache] defaults to [true]. *)

val machine : t -> Machine.t
val cost : t -> Cost.t
val cache : t -> Cache_impl.t option

val map_pages : t -> int -> int
(** [map_pages t n] maps [n] fresh contiguous pages and returns the
    address of the first.  Models an [sbrk]/[mmap] request.
    @raise Fault when the 512 MB simulated address space is exhausted
    or an installed {!set_oom_hook} denies the request. *)

val set_oom_hook : t -> (int -> bool) option -> unit
(** [set_oom_hook t (Some allow)] installs a fault-injection hook at
    the page-map level: before mutating any state, {!map_pages}
    consults [allow n] and raises {!Fault} when it returns [false],
    exactly as if the simulated OS were out of memory.  Because the
    hook runs before any state change, a denied request leaves both
    the memory and the caller's heap structures consistent.  [None]
    (the default) removes the hook; with no hook installed the check
    is a single pattern match and simulated costs are untouched. *)

val set_corrupt_hook : t -> (unit -> unit) option -> unit
(** [set_corrupt_hook t (Some f)] installs a corruption-injection hook:
    {!map_pages} calls [f ()] once after each successfully granted
    request (a denied request never reaches it).  A fault plan uses the
    hook to {!flip_bit} already-mapped heap words at deterministic
    points, modelling latent memory corruption that the sanitizer must
    catch.  Corruption fires only at OS-interaction points, so the
    load/store hot paths carry no extra branch; with no hook installed
    the check is a single pattern match on a cold path and simulated
    counts are untouched. *)

val flip_bit : t -> int -> int -> unit
(** [flip_bit t addr bit] inverts bit [bit] (0..31) of the mapped,
    word-aligned word at [addr].  Cost-free, like {!poke}: corruption
    is injected by the test harness, not executed by the simulated
    program.  @raise Fault on unmapped or unaligned [addr]. *)

val tracer : t -> Obs.Tracer.t
(** The attached tracer; a disabled {!Obs.Tracer.null} by default, so
    emitting through it is a single branch. *)

val set_tracer : t -> Obs.Tracer.t -> unit
(** Attach a tracer and install this memory's simulated-cycle clock
    into it.  {!map_pages} emits page-map events; the region runtime,
    the collector and the workload API emit their own events through
    the same tracer.  Tracing is pure observation: it charges no
    simulated instructions, cycles or stalls. *)

val os_bytes : t -> int
(** Total bytes ever mapped from the simulated OS. *)

val limit : t -> int
(** One past the highest mapped address. *)

val is_mapped : t -> int -> bool

val load : t -> int -> int
(** [load t addr] reads the 32-bit word at word-aligned [addr],
    zero-extended to an OCaml [int]. *)

val load_signed : t -> int -> int
(** As {!load} but sign-extends from 32 bits. *)

val store : t -> int -> int -> unit
(** [store t addr v] writes the low 32 bits of [v] at word-aligned
    [addr]. *)

val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit

val clear : t -> int -> int -> unit
(** [clear t addr bytes] zeroes [bytes] bytes starting at word-aligned
    [addr], charging one instruction per word (the paper's region
    allocator clears every [ralloc]ed object).  Bounds are validated
    once for the whole range; the backing store is filled in one blit,
    but simulated costs are identical to a word-by-word store loop. *)

val load_block : t -> int -> int -> int array
(** [load_block t addr n] reads [n] consecutive words starting at
    word-aligned [addr], zero-extended.  Costs are identical to [n]
    calls to {!load} (one instruction and one cache read per word);
    bounds are validated once. *)

val find_nonzero : t -> int -> int -> int
(** [find_nonzero t addr n] is the index of the first nonzero word
    among the [n] consecutive words at word-aligned [addr], or [n] if
    all are zero.  Costs and faults are identical to a {!load} loop
    that stops after the first nonzero word: one instruction and one
    cache read per word examined, in address order.  Read the word
    found with {!peek}: its load is already charged. *)

val store_block : t -> int -> int array -> unit
(** [store_block t addr words] writes [words] consecutively starting
    at word-aligned [addr].  Costs are identical to a {!store} loop. *)

val store_bytes : t -> int -> string -> unit
(** [store_bytes t addr s] copies [s] into memory at byte address
    [addr].  Costs are identical to a {!store_byte} loop; the data
    moves in one blit. *)

val peek : t -> int -> int
(** Cost-free word read for tests and debugging; not for simulation
    paths. *)

val poke : t -> int -> int -> unit
(** Cost-free word write for tests and debugging. *)

val poke_byte : t -> int -> int -> unit
(** Cost-free byte write; the replay engine uses the poke family to
    reproduce recorded mutator stores without charging mutator cost. *)

val poke_bytes : t -> int -> string -> unit
(** Cost-free bulk byte write. *)

val poke_fill : t -> int -> int -> unit
(** [poke_fill t addr bytes] zeroes the word-aligned range cost-free
    (the replay-side mirror of {!clear}). *)
