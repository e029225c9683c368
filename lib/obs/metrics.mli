(** Process-wide metrics registry: counters, gauges and log-bucketed
    histograms.

    This is the instrumentation substrate for cross-run observability
    (and for the future [repro serve] daemon): hot paths increment
    pre-registered series, a snapshot walks them deterministically.
    Like the rest of [lib/obs] the registry is host-side only — no
    instrument ever touches simulated memory or cost, so enabling or
    disabling metrics cannot change a single simulated count (the
    byte-identity test in [test_obs] pins this over a full matrix
    row).

    Concurrency: instruments are backed by [Atomic] cells, so matrix
    domains may increment the same series concurrently; registration
    takes a mutex and is expected at module initialisation time.  The
    hot operations ([inc], [add], [observe]) allocate nothing after
    registration; [set] on a gauge boxes a float and is meant for
    cold paths (end-of-run rates). *)

type t
(** A registry. *)

val create : ?enabled:bool -> unit -> t
(** Fresh registry; disabled by default, like every [lib/obs]
    instrument. *)

val default : t
(** The process-wide registry the library instrumentation points
    (cache, matrix, replay, faults) register into.  Disabled until
    [set_enabled] — all hot-path operations are a load-and-branch. *)

val set_enabled : t -> bool -> unit

(** {1 Instruments}

    Registration is idempotent: asking for a name+labels pair that
    already exists returns the existing instrument (so modules may
    register at toplevel without coordinating); re-registering under a
    different instrument kind is an error. *)

type counter

val counter : t -> ?labels:(string * string) list -> string -> counter
val inc : counter -> unit
val add : counter -> int -> unit

type gauge

val gauge : t -> ?labels:(string * string) list -> string -> gauge

val set : gauge -> float -> unit
(** Cold path: boxes the float. *)

type histogram

val histogram : t -> ?labels:(string * string) list -> string -> histogram

val observe : histogram -> int -> unit
(** Record a (non-negative) integer observation into base-2 log
    buckets: bucket [b] holds values [v] with [2^(b-1) <= v < 2^b];
    bucket 0 holds zero (and any negative input).  O(1), zero
    allocation. *)

(** {1 Snapshot} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { buckets : (int * int) list; sum : int; count : int }
      (** [buckets] lists only non-empty buckets as
          [(bucket_index, count)], ascending. *)

type series = { name : string; labels : (string * string) list; value : value }

val snapshot : t -> series list
(** Deterministic: sorted by name, then labels.  Values are whatever
    the atomics hold at the moment each is read. *)

val bucket_of : int -> int
(** The bucket index [observe] files a value under (exposed for the
    boundary property test). *)
