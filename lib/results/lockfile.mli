(** Advisory single-writer locks for shared on-disk state.

    The cell cache and the serve journal are multi-file
    stores written with atomic renames and checksummed append-only
    lines — individually crash-safe, but nothing stops a [repro serve]
    daemon and a concurrent [repro experiment] from interleaving whole
    runs over the same directory and silently racing each other's
    entries.  A lock file makes that exclusion explicit: the first
    acquirer holds an OS advisory write lock ([Unix.lockf]) for its
    process lifetime, and the second gets a diagnostic naming the
    holder instead of a corrupted store.

    Locks are advisory: only paths acquired through this module are
    excluded.  They are released on process exit (including [kill -9])
    by the OS, so a crashed daemon never wedges the cache.  The fd is
    opened close-on-exec, so daemons spawned by a lock holder do not
    inherit (and silently keep) the lock. *)

type t

(** Why {!acquire} failed, with its one-line diagnostic: another
    process holds the lock ([Held]), or the lock file cannot be opened
    or locked at all ([Unusable]: a path through a regular file, no
    permission). *)
type error = Held of string | Unusable of string

val error_message : error -> string

val acquire : ?owner:string -> string -> (t, error) result
(** [acquire path] takes the exclusive advisory lock on [path]
    (creating it, and its parent directory, as needed) and records
    ["<owner> pid <pid>"] in it for diagnostics.  [owner] defaults to
    the basename of the running executable.  On contention the error
    is [Held], naming the current holder: ["locked by repro-serve pid
    1234"].  An unwritable location is an error too — the caller asked
    for exclusion and must not proceed without it. *)

val release : t -> unit
(** Drops the lock (idempotent).  Exiting releases it anyway; this is
    for tests and for daemons that drain before exiting. *)
