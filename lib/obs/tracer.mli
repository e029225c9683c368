(** The tracing façade: an observer of the simulated machine.

    A tracer writes each event straight to the sink it was created
    with, and keeps a cycle-driven {!Sampler} and a per-site profiler.
    The layers of the simulator (memory, region runtime, allocators,
    collector, workload API) emit events into it.  It only {e reads}
    the simulation — via the [clock] and [probe] callbacks its host
    installs — so recording never charges simulated instructions,
    cycles or stalls.  The test suite proves simulated counts are
    byte-identical with and without a tracer attached.

    Concurrency: a tracer observes one simulated machine and is not
    thread-safe; parallel harness cells each use their own. *)

type sink = kind:int -> time:int -> site:int -> a:int -> b:int -> unit
(** Where events go, in emission order: the {!Event.to_int} kind, the
    simulated-cycle timestamp, the site id and the two payload
    words. *)

type t

val create : ?sample_interval:int -> sink -> t
(** A tracer that calls [sink] once per event.  [sample_interval] is
    the time-series period in simulated cycles (default 50000). *)

val events : t -> int
(** Events passed to the sink so far. *)

val sampler : t -> Sampler.t

val set_clock : t -> (unit -> int) -> unit
(** Install the simulated-cycle clock used to stamp events.  Installed
    automatically when the tracer is attached to a simulated memory. *)

val set_probe : t -> (unit -> Sampler.probe) -> unit
(** Install the counter snapshot used by the sampler and the per-site
    profiler.  Installed by the workload API, which knows the live-byte
    and cache accounting for its mode. *)

(** {1 Event emitters}

    Events carry the innermost open span as their site tag. *)

val region_create : t -> int -> unit
val region_delete : t -> deleted:bool -> int -> unit
val malloc : t -> addr:int -> bytes:int -> unit
val free : t -> addr:int -> unit
val ralloc : t -> addr:int -> bytes:int -> unit
val page_map : t -> addr:int -> pages:int -> unit
val barrier : t -> addr:int -> hinted:bool -> unit
val gc_begin : t -> ordinal:int -> unit
val gc_end : t -> live_bytes:int -> unit

val tick : t -> unit
(** Give the sampler a chance to observe the current cycle without
    recording an event; emitted from computational work so long
    allocation-free stretches still produce samples. *)

(** {1 Spans} *)

val phase : t -> string -> (unit -> 'a) -> 'a
(** [phase t name f] brackets [f] with workload phase markers.  Phases
    and sites share one stack, so profiles nest. *)

val site : t -> string -> (unit -> 'a) -> 'a
(** [site t name f] runs [f] under an attribution site: allocations
    inside are tagged with [name], and the site accumulates the
    instructions and stalls spent inside [f] net of nested spans. *)

(** {1 Site table} *)

val site_name : t -> int -> string
(** The name interned under a site id (ids start at 1; 0 means "no
    site" and names [""]). *)

val nsites : t -> int

(** {1 Profiler readouts} *)

type site_stat = {
  name : string;
  calls : int;
  allocs : int;
  bytes : int;  (** bytes allocated under this tag *)
  base_instrs : int;  (** self, net of nested spans *)
  mem_instrs : int;
  read_stalls : int;
  write_stalls : int;
}

val stat_cycles : site_stat -> int

val sites : t -> site_stat list
(** All interned sites, most expensive (self cycles) first. *)

val folded : t -> (string * int) list
(** Folded-stack lines ["phase;site;..." -> self cycles], consumable
    by [flamegraph.pl] / [inferno-flamegraph]; includes a
    ["(toplevel)"] entry for cycles outside any span once {!finish}
    has run. *)

val finish : t -> unit
(** Close the run: take the final time-series sample and fold the
    unattributed remainder.  Idempotent. *)
