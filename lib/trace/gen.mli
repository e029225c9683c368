(** Deterministic synthetic trace generator.

    Produces valid binary traces ({!Format}) straight from
    parameterised size and lifetime distributions — no workload
    execution — so replay columns can be driven at object counts the
    full-execution matrix cannot reach.  Generation is pure integer
    arithmetic over splitmix streams: the same {!t} yields
    byte-identical output on every host and build, which is why
    generated traces are cached without a build-id key
    ({!Results.Cache.gen_trace_path}).

    Generated traces set the trailer's recycled-ids flag: object and
    region ids are reused LIFO as they die, so the replayer's tables
    are sized by the {e live} high-water mark, keeping replay memory
    independent of trace length. *)

type size_dist =
  | Table2  (** the Table-2-fitted small-object mix used by the fuzzer *)
  | Uniform of { lo : int; hi : int }  (** uniform in [lo, hi] bytes *)
  | Heavy of { lo : int; cap : int }
      (** Pareto-style tail: P(>= lo * 2^k) = 2^-k, capped at [cap] *)

type lifetime =
  | Lifo of { batch : int }
      (** allocate a batch, free it newest-first: region-friendly *)
  | Exp of { mean : int }
      (** exponential lifetimes (in allocations), interleaved deaths *)
  | Long of { pct : int; mean : int }
      (** [Exp] plus [pct]% immortal objects freed only at the end *)

type t = {
  objects : int;  (** total objects allocated over the trace *)
  variant : string;  (** "malloc" (heap columns) or "region" *)
  sizes : size_dist;
  lifetime : lifetime;
  stores : int;  (** pointer stores emitted per allocation *)
  seed : int;
}

val default : t
(** 1M objects, malloc, table2 sizes, lifo:256 lifetimes, 1 store. *)

val to_string : t -> string
(** Canonical spec, e.g.
    ["n=1000000,variant=malloc,size=table2,life=lifo:256,stores=1,seed=1"].
    Round-trips through {!of_string}; also the cache key and the value
    recorded in the generated trace's header [size] field. *)

val of_string : string -> (t, string) result
(** Parses a comma-separated [key=value] spec; omitted keys take their
    {!default} values.  Sizes: [table2], [uniform:LO:HI],
    [heavy:LO:CAP]; lifetimes: [lifo:BATCH], [exp:MEAN],
    [long:PCT:MEAN]. *)

val generate : out:string -> t -> unit
(** Writes the trace for [t] to [out] (atomically, via the streaming
    writer — peak memory is independent of [t.objects]).  Raises
    [Invalid_argument]-style [Failure] via [Error]-free validation:
    invalid params raise; use {!of_string} to validate untrusted
    specs. *)

val ensure :
  ?cache:Results.Cache.t -> ?progress:(string -> unit) -> t -> string
(** Path to the generated trace for [t], generating it on first use.
    With [cache], the file lives in the content-addressed cache slot
    ({!Results.Cache.gen_trace_path}) and is reused when present and
    valid (header spec must match — damage means regenerate).  Without
    [cache], a deterministic path under the system temp directory is
    used with the same reuse rule. *)
