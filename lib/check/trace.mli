(** Deterministic allocation traces for the differential fuzzer.

    A trace is a fixed-seed sequence of malloc/free/realloc-shaped
    operations over abstract block ids, generated by splitmix64
    ({!Sim.Rng}) so that the same [(seed, length)] pair always yields
    the same trace — the replay against every allocator is therefore
    exactly reproducible, and a failure report (seed, trace index,
    shrunk ops) suffices to re-run it.

    Sizes are drawn from a distribution fitted to Table 2 of the
    paper: the six benchmarks average 15–90 bytes per object (total kB
    / allocations), dominated by small structures, with lcc and moss
    contributing a long tail of multi-kilobyte buffers. *)

type op =
  | Alloc of { id : int; size : int }
  | Free of { id : int }
  | Realloc of { id : int; size : int }
      (** Allocate [size] bytes, copy the overlapping prefix from the
          old block of [id], free the old block; [id] then names the
          new block. *)
  | Poke of { id : int; word : int }
      (** Write a marker word at word offset [word] of block [id]
          (within its requested size). *)

type t = { seed : int; ops : op array }

val generate : seed:int -> len:int -> t
(** [generate ~seed ~len] is a valid trace of [len] operations: every
    [Free]/[Realloc]/[Poke] names a block live at that point, and at
    most 256 blocks are live at once. *)

val size_words : int -> int
(** Words spanned by a block of the given requested size. *)

val pp : t Fmt.t
(** One operation per line, for shrunk-failure reports. *)
