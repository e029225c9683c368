(** Content-addressed on-disk cache of result {!Cell}s and of
    generated traces ({!gen_trace_path}).  Nothing else lives there: a
    recorded trace lives for the process that records it.

    The address (an FNV-1a 64 digest, also the file name under the
    cache directory) covers everything the deterministic simulation
    depends on: executable build id, workload, mode, input size, fault
    seed and fault plan.  A hit is therefore byte-equivalent to a
    re-run; a code change rolls the build id and silently invalidates
    every entry.  Entries are single JSON files written atomically and
    durably (unique temp, fsync, rename, directory fsync), so
    concurrent writers — matrix worker domains, parallel processes —
    are safe, and an entry that survives a crash is complete.  This is
    what resumes a killed batch run: re-running the same command finds
    the stored cells as hits and computes only the rest.

    The default directory is [.repro-cache] under the working
    directory, overridable with the [REPRO_CACHE_DIR] environment
    variable.  An unwritable cache degrades to "no cache", never to an
    error: caching is an optimisation, not a dependency. *)

type t

val create : ?dir:string -> ?build_id:string -> unit -> t
(** [dir] defaults to {!default_dir}; [build_id] defaults to the MD5
    digest of the running executable (tests pass explicit ids to prove
    invalidation). *)

val default_dir : unit -> string

val dir : t -> string
val build_id : t -> string

val current_build_id : unit -> string
(** The running executable's digest (what [create] defaults to). *)

val key :
  t -> workload:string -> mode:string -> size:string -> seed:int ->
  plan:string -> string

val gen_trace_path : t -> gen:string -> spec:string -> string
(** Content-addressed slot for a generated (synthetic) trace
    ([Trace.Gen]), keyed on the generator revision [gen] and the
    canonical parameter string [spec] — deliberately {e not} on the
    build id: a generated trace is a pure function of its spec, and a
    rebuild must not invalidate multi-GB artefacts.  [gen] changes
    whenever the generator's byte output would. *)

val writable : t -> bool
(** Creates the cache directory if it is missing, and says whether it is
    then a directory this process can write into.  A [false] cache is
    one a trace cannot be generated into; cells still degrade to
    misses. *)

val find :
  t -> workload:string -> mode:string -> size:string -> seed:int ->
  plan:string -> Cell.t option
(** [None] on absence, damage, schema mismatch, or an identity
    mismatch between the request and the stored cell (collision
    guard) — all of which simply mean "run it". *)

val store : t -> Cell.t -> unit
(** Atomic and durable (the entry is fsync'd before it is renamed into
    place, and the directory after); creates the cache directory on
    first use.  IO failure is swallowed: the temp file is removed, the
    cell is still in memory, and only a later {!find} misses. *)

val sweep : t -> max_bytes:int -> int
(** Size-capped LRU eviction: if the cache's entry files ([*.json]
    cells and [*.trace] generated traces) total more than
    [max_bytes], remove oldest-mtime-first until under the cap,
    returning the number of entries evicted (0 when already under).
    {!find} refreshes a hit's mtime, so recency means "last served",
    not "first written" — hot cells survive a sweep.  Removals are
    single atomic unlinks (concurrent readers either already hold the
    open file or miss and recompute); in-flight [*.tmp.*] writer files
    and lock files are never touched. *)
