(** Compact binary allocation-trace format.

    A trace is one file: a versioned header naming what was recorded
    (workload, trace variant, recording mode, size, seed, build id), a
    stream of variable-length records — the allocator-visible
    operations of one run, plus the heap stores and collection-time
    root snapshots a replay needs — and a trailer carrying the record
    and id counts, the replay id-table sizes, and the run's summary
    string, sealed with an end magic so truncated or torn files are
    rejected at open.

    Integers are LEB128 varints (zigzag where a field can be
    negative); phase/site names are interned, each defined once inline
    by a string-definition record.  The writer streams through a
    fixed-size buffer into [path ^ ".tmp.<pid>"] and commits with an
    atomic rename, like every other artefact in this repo; writer
    memory is O(1) in the trace length.  The reader streams too: the
    envelope (magic, version, trailer, end magic) is validated by a
    cheap seek-to-end, and the record body is then decoded through a
    fixed-size refill window, so resident memory is the chunk size —
    independent of how many records the trace holds.  Records are
    decoded across chunk boundaries transparently. *)

exception Corrupt of string
(** Raised by the reader on a malformed or truncated stream. *)

type header = {
  workload : string;
  variant : string;  (** ["malloc"], ["emu"] or ["region"] *)
  mode : string;  (** mode the trace was recorded under *)
  size : string;  (** ["quick"] or ["full"] *)
  seed : int;
  build_id : string;
}

(** A pointer-classified value: [Raw] travels verbatim, [Obj (id,
    delta)] names a byte offset into the [id]th allocation of the
    trace, [Reg rid] names the [rid]th region's handle.  Replay
    resolves [Obj]/[Reg] against its own allocation addresses, which
    is the identity when the replay mode matches the recording mode
    and the cross-allocator translation otherwise. *)
type value = Raw of int | Obj of int * int | Reg of int

type mark = Phase_begin | Phase_end | Site_begin | Site_end

type record =
  | Malloc of { size : int }
  | Free of { id : int }
  | Newregion
  | Ralloc of { rid : int; layout : Regions.Cleanup.layout }
  | Rstralloc of { rid : int; size : int }
  | Rarrayalloc of { rid : int; n : int; layout : Regions.Cleanup.layout }
  | Deleteregion of { rid : int; frame : int; slot : int; ok : bool }
      (** [rid] names the deleted region so replays of recycled traces
          can return its object ids to the free pool. *)
  | Frame_push of { nslots : int; ptr_slots : int list }
  | Frame_pop
  | Poke of { addr : int; v : int }
  | Poke_bytes of { addr : int; s : string }
  | Poke_block of { addr : int; words : int array }
  | Clear of { addr : int; bytes : int }
  | Store_ptr of { addr : value; v : value }
  | Set_local of { frame : int; slot : int; v : value }
  | Set_local_ptr of { frame : int; slot : int; v : value }
  | Gc_roots of int array
  | Mark of { name : string; kind : mark }
  | Set_mutator of { mid : int; bump : bool }
      (** Mutator handoff under an N-mutator schedule; [bump] is
          whether the region bump fast path was active, so replays
          take the identical allocation path (v3 traces only). *)
  | End

(** {1 Writer} *)

type writer

val create_writer : path:string -> header -> writer
(** Opens [path ^ ".tmp.<pid>"] and writes the header.  The final
    [path] is untouched until {!commit}. *)

val emit : writer -> record -> unit
(** Appends one record.  [Malloc]/[Ralloc]/[Rstralloc]/[Rarrayalloc]
    advance the object-id counter and [Newregion] the region-id
    counter recorded in the trailer.  @raise Invalid_argument on [End]
    (the trailer is {!commit}'s job). *)

val set_recycled_slots : writer -> objects:int -> regions:int -> unit
(** Mark the trace as using the id-recycling discipline (generated
    traces: a freed object's id — and a deleted region's — is reused,
    newest first) and record the replay table sizes: the high-water
    marks of simultaneously live ids, which is what bounds a replay's
    memory instead of the total allocation count. *)

(** {2 Hot-path emitters}

    {!emit} of the corresponding record calls these, so the bytes are
    the same; called directly, they skip the intermediate [record]
    value — the recorder sits on every mutator store, so the common
    records get dedicated entry points.
    [emit_poke_block] and [emit_gc_roots] encode the array before
    returning, so the caller need not defensively copy it. *)

val emit_malloc : writer -> size:int -> unit
val emit_free : writer -> id:int -> unit
val emit_poke : writer -> addr:int -> v:int -> unit
val emit_poke_bytes : writer -> addr:int -> string -> unit
val emit_poke_block : writer -> addr:int -> int array -> unit
val emit_clear : writer -> addr:int -> bytes:int -> unit
val emit_gc_roots : writer -> int array -> unit
val emit_newregion : writer -> unit
val emit_ralloc : writer -> rid:int -> Regions.Cleanup.layout -> unit
val emit_rstralloc : writer -> rid:int -> size:int -> unit
val emit_rarrayalloc : writer -> rid:int -> n:int -> Regions.Cleanup.layout -> unit
val emit_deleteregion : writer -> rid:int -> frame:int -> slot:int -> ok:bool -> unit
val emit_store_ptr : writer -> addr:value -> v:value -> unit
val emit_set_local : writer -> frame:int -> slot:int -> v:value -> unit
val emit_set_local_ptr : writer -> frame:int -> slot:int -> v:value -> unit

val commit : writer -> summary:string -> unit
(** Writes the trailer, flushes, closes and atomically renames into
    place. *)

val abort : writer -> unit
(** Closes and removes the temporary file (idempotent; [commit]ted
    writers are left alone). *)

val temp_path : string -> string
(** [temp_path prefix] creates a fresh empty [prefix*.trace] file under
    [Filename.get_temp_dir_name ()] and returns its path: the home of a
    trace that lives for this process only.  The file is removed when
    the process exits. *)

(** {1 Reader} *)

type reader

val open_file : ?chunk:int -> string -> (reader, string) result
(** Validates the envelope with a bounded header read and a
    seek-to-end (end magic, LE64 trailer backpointer, trailer), then
    streams the body through a [chunk]-byte refill window (default
    256 KiB; clamped to at least 1).  A truncated or torn file, or a
    trace of any version but the one the writer emits, is an
    [Error].  The reader holds the file open: {!close} it when
    done. *)

val open_in_memory : string -> (reader, string) result
(** Same validation, but the whole file is slurped into one string up
    front and decoded in place, with zero refills — the PR-6 reader.
    Replay is source-compatible with both; the streaming reader is the
    default because its memory is independent of trace length. *)

val close : reader -> unit
(** Release the underlying file handle (idempotent).  Reading a closed
    reader raises {!Corrupt}. *)

val header : reader -> header
val summary : reader -> string
val records : reader -> int

val objects : reader -> int
(** Total allocations in the trace. *)

val regions : reader -> int
(** Total regions created in the trace. *)

val obj_slots : reader -> int
(** The replay's object-id table size: equal to {!objects} for
    recorded traces, the live high-water mark for recycled (generated)
    ones. *)

val reg_slots : reader -> int
(** The replay's region-id table size (see {!obj_slots}). *)

val recycled : reader -> bool
(** Whether the trace uses the id-recycling discipline
    ({!set_recycled_slots}). *)

val reset : reader -> unit
(** Rewind to the first record. *)

val next : reader -> record
(** The next record, or [End] once the stream is exhausted (then
    forever).  String definitions are consumed transparently.
    @raise Corrupt on a malformed record. *)

val next_fused :
  reader ->
  poke:(addr:int -> v:int -> unit) ->
  resolve:(int -> int -> int -> int) ->
  store:(addr:int -> v:int -> unit) ->
  record
(** Like {!next}, but any run of plain [Poke] and [Store_ptr] records
    — the bulk of a workload trace — is consumed in place: pokes go
    through [poke]; each classified value's components go through
    [resolve kind a b] (kind 0 = [Raw a], 1 = [Obj (a, b)], 2 = [Reg
    a]), and the two resolved addresses through [store].  Everything
    stays in immediate ints — no [value] or [record] is built.  The
    first record of any other kind is returned. *)

(** {2 Dispatch}

    {!next}, {!next_fused} and {!dispatch} decode through one core.
    While the refill window holds a whole worst-case record, it keeps
    the read position in a register and reads the record's varints
    inline, with one write of the position per record.  Near the window
    end, and for anything unusual (a varint of 9 bytes or more, an
    unknown tag or value kind), it decodes byte by byte with every
    {!Corrupt} check. *)

(** One callback per record kind a replay acts on, each taking the
    record's fields as immediate ints ([ralloc] and [rarrayalloc] take
    the interned layout).  Classified values go through [resolve] as in
    {!next_fused}: [store_ptr] receives both resolved addresses,
    [set_local] and [set_local_ptr] the resolved value. *)
type handlers = {
  malloc : size:int -> unit;
  free : id:int -> unit;
  newregion : unit -> unit;
  ralloc : rid:int -> Regions.Cleanup.layout -> unit;
  rstralloc : rid:int -> size:int -> unit;
  rarrayalloc : rid:int -> n:int -> Regions.Cleanup.layout -> unit;
  deleteregion : rid:int -> frame:int -> slot:int -> ok:bool -> unit;
  poke : addr:int -> v:int -> unit;
  clear : addr:int -> bytes:int -> unit;
  resolve : int -> int -> int -> int;
  store_ptr : addr:int -> v:int -> unit;
  set_local : frame:int -> slot:int -> v:int -> unit;
  set_local_ptr : frame:int -> slot:int -> v:int -> unit;
  set_mutator : mid:int -> bump:bool -> unit;
}

val dispatch : reader -> handlers -> record
(** Decodes records straight into [handlers], building no [record],
    until the first record they do not take: [Frame_push], [Frame_pop],
    [Poke_bytes], [Poke_block], [Gc_roots], [Mark] or [End], which is
    returned.  The callbacks see exactly the records and fields {!next}
    would return.
    @raise Corrupt on a malformed record. *)
