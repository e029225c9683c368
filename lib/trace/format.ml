exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

type header = {
  workload : string;
  variant : string;
  mode : string;
  size : string;
  seed : int;
  build_id : string;
}

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
  | End

let magic = "RGTR"
let end_magic = "RGEN"

(* v2: [Deleteregion] carries the region id, and the trailer carries
   the replay table sizes ([oslots]/[rslots]) plus a flags varint
   whose bit 0 marks the id-recycling discipline of generated
   traces.
   v3: [Set_mutator] records mutator handoffs (and whether the region
   bump fast path was active, so replays take the same allocation
   path).  The reader accepts only the version the writer emits:
   nothing writes an older one, and cached traces are keyed by build
   id, so an older trace is refused at open rather than read. *)
let version = 3

(* Record tags.  0 is the trailer; 3, 12 and 15 are unassigned (the
   reader rejects them as unknown). *)
let t_malloc = 1
and t_free = 2
and t_newregion = 4
and t_ralloc = 5
and t_rstralloc = 6
and t_rarrayalloc = 7
and t_deleteregion = 8
and t_frame_push = 9
and t_frame_pop = 10
and t_poke = 11
and t_poke_bytes = 13
and t_poke_block = 14
and t_clear = 16
and t_store_ptr = 17
and t_set_local = 18
and t_set_local_ptr = 19
and t_gc_roots = 20
and t_mark = 21
and t_strdef = 22
and t_set_mutator = 23

(* ------------------------------------------------------------------ *)
(* Encoding *)

let zigzag n = if n >= 0 then n lsl 1 else (lnot n lsl 1) lor 1
let[@inline] unzigzag n = if n land 1 = 0 then n lsr 1 else lnot (n lsr 1)

(* ------------------------------------------------------------------ *)
(* Writer

   The write path is a flat [Bytes] with a position cursor, not a
   [Buffer]: the recorder emits a record per mutator store, and
   [Buffer.add_char]'s per-byte bounds check is most of that cost.
   Each emitter reserves its worst-case byte count once ([reserve])
   and then stores unchecked.  The buffer is a fixed 64 KiB window
   that is flushed and reused, never grown: variable-length payloads
   (strings, root arrays, block pokes) reserve per element, so writer
   memory is O(1) in the trace length. *)

type writer = {
  wbuf : Bytes.t;
  mutable wpos : int;
  oc : out_channel;
  tmp : string;
  final : string;
  strings : (string, int) Hashtbl.t;
  mutable nrecords : int;
  mutable nobjects : int;
  mutable nregions : int;
  mutable oslots_override : int option;
  mutable rslots_override : int option;
  mutable recycled : bool;
  mutable closed : bool;
}

let flush_buf w =
  if w.wpos > 0 then begin
    output w.oc w.wbuf 0 w.wpos;
    w.wpos <- 0
  end

(* Make room for [n] more bytes.  Every reservation in this file is
   far below the buffer size, so a flush always suffices. *)
let reserve w n = if w.wpos + n > Bytes.length w.wbuf then flush_buf w

let wbyte w c =
  Bytes.unsafe_set w.wbuf w.wpos (Char.unsafe_chr c);
  w.wpos <- w.wpos + 1

let rec wuv_slow w n =
  if n < 0x80 then wbyte w n
  else begin
    wbyte w (0x80 lor (n land 0x7F));
    wuv_slow w (n lsr 7)
  end

(* Unchecked varint put: the caller's [reserve] must cover it (10
   bytes is enough for any 63-bit value). *)
let wuv w n =
  if n < 0 then invalid_arg "Trace.Format: negative varint"
  else if n < 0x80 then wbyte w n
  else wuv_slow w n

let wsv w n = wuv w (zigzag n)

(* Chunked raw copy through the fixed window. *)
let wraw w s =
  let n = String.length s in
  let k = ref 0 in
  while !k < n do
    if w.wpos = Bytes.length w.wbuf then flush_buf w;
    let take = min (n - !k) (Bytes.length w.wbuf - w.wpos) in
    Bytes.blit_string s !k w.wbuf w.wpos take;
    w.wpos <- w.wpos + take;
    k := !k + take
  done

let wstr w s =
  reserve w 10;
  wuv w (String.length s);
  wraw w s

let wvalue w = function
  | Raw v ->
      wuv w 0;
      wsv w v
  | Obj (id, delta) ->
      wuv w 1;
      wuv w id;
      wuv w delta
  | Reg rid ->
      wuv w 2;
      wuv w rid

let create_writer ~path hdr =
  let dir = Filename.dirname path in
  let rec mkdir_p d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  mkdir_p dir;
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  let w =
    {
      wbuf = Bytes.create 65536;
      wpos = 0;
      oc;
      tmp;
      final = path;
      strings = Hashtbl.create 16;
      nrecords = 0;
      nobjects = 0;
      nregions = 0;
      oslots_override = None;
      rslots_override = None;
      recycled = false;
      closed = false;
    }
  in
  reserve w 5;
  Bytes.blit_string magic 0 w.wbuf w.wpos 4;
  w.wpos <- w.wpos + 4;
  wbyte w version;
  wstr w hdr.workload;
  wstr w hdr.variant;
  wstr w hdr.mode;
  wstr w hdr.size;
  reserve w 10;
  wuv w hdr.seed;
  wstr w hdr.build_id;
  w

let set_recycled_slots w ~objects ~regions =
  w.oslots_override <- Some objects;
  w.rslots_override <- Some regions;
  w.recycled <- true

let sid w name =
  match Hashtbl.find_opt w.strings name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length w.strings in
      Hashtbl.replace w.strings name id;
      reserve w 1;
      wbyte w t_strdef;
      wstr w name;
      id

let wlayout w (l : Regions.Cleanup.layout) =
  let offs = l.Regions.Cleanup.ptr_offsets in
  reserve w 20;
  wuv w l.Regions.Cleanup.size_bytes;
  wuv w (List.length offs);
  List.iter
    (fun o ->
      reserve w 10;
      wuv w o)
    offs

(* One encoder per record.  The recorder's hot path calls these
   directly, without constructing the intermediate [record] (and, for
   the array-carrying records, without the defensive copy a [record]
   value would force — the payload is encoded before the callback
   returns); [emit] dispatches to them.  Reservations are worst cases:
   10 bytes covers any varint, 21 any [value]; array and string
   payloads reserve per element. *)

let emit_malloc w ~size =
  reserve w 11;
  wbyte w t_malloc;
  wuv w size;
  w.nobjects <- w.nobjects + 1;
  w.nrecords <- w.nrecords + 1

let emit_free w ~id =
  reserve w 11;
  wbyte w t_free;
  wuv w id;
  w.nrecords <- w.nrecords + 1

let emit_poke w ~addr ~v =
  reserve w 21;
  wbyte w t_poke;
  wuv w addr;
  wsv w v;
  w.nrecords <- w.nrecords + 1

let emit_poke_bytes w ~addr s =
  reserve w 11;
  wbyte w t_poke_bytes;
  wuv w addr;
  wstr w s;
  w.nrecords <- w.nrecords + 1

let emit_poke_block w ~addr words =
  reserve w 21;
  wbyte w t_poke_block;
  wuv w addr;
  wuv w (Array.length words);
  Array.iter
    (fun v ->
      reserve w 10;
      wsv w v)
    words;
  w.nrecords <- w.nrecords + 1

let emit_clear w ~addr ~bytes =
  reserve w 21;
  wbyte w t_clear;
  wuv w addr;
  wuv w bytes;
  w.nrecords <- w.nrecords + 1

let emit_newregion w =
  reserve w 1;
  wbyte w t_newregion;
  w.nregions <- w.nregions + 1;
  w.nrecords <- w.nrecords + 1

let emit_ralloc w ~rid layout =
  reserve w 11;
  wbyte w t_ralloc;
  wuv w rid;
  wlayout w layout;
  w.nobjects <- w.nobjects + 1;
  w.nrecords <- w.nrecords + 1

let emit_rstralloc w ~rid ~size =
  reserve w 21;
  wbyte w t_rstralloc;
  wuv w rid;
  wuv w size;
  w.nobjects <- w.nobjects + 1;
  w.nrecords <- w.nrecords + 1

let emit_rarrayalloc w ~rid ~n layout =
  reserve w 21;
  wbyte w t_rarrayalloc;
  wuv w rid;
  wuv w n;
  wlayout w layout;
  w.nobjects <- w.nobjects + 1;
  w.nrecords <- w.nrecords + 1

let emit_deleteregion w ~rid ~frame ~slot ~ok =
  reserve w 41;
  wbyte w t_deleteregion;
  wuv w rid;
  wuv w frame;
  wuv w slot;
  wuv w (if ok then 1 else 0);
  w.nrecords <- w.nrecords + 1

let emit_store_ptr w ~addr ~v =
  reserve w 43;
  wbyte w t_store_ptr;
  wvalue w addr;
  wvalue w v;
  w.nrecords <- w.nrecords + 1

let emit_set_local w ~frame ~slot ~v =
  reserve w 42;
  wbyte w t_set_local;
  wuv w frame;
  wuv w slot;
  wvalue w v;
  w.nrecords <- w.nrecords + 1

let emit_set_local_ptr w ~frame ~slot ~v =
  reserve w 42;
  wbyte w t_set_local_ptr;
  wuv w frame;
  wuv w slot;
  wvalue w v;
  w.nrecords <- w.nrecords + 1

let emit_gc_roots w roots =
  reserve w 11;
  wbyte w t_gc_roots;
  wuv w (Array.length roots);
  Array.iter
    (fun v ->
      reserve w 10;
      wsv w v)
    roots;
  w.nrecords <- w.nrecords + 1

let emit w r =
  match r with
  | Malloc { size } -> emit_malloc w ~size
  | Free { id } -> emit_free w ~id
  | Newregion -> emit_newregion w
  | Ralloc { rid; layout } -> emit_ralloc w ~rid layout
  | Rstralloc { rid; size } -> emit_rstralloc w ~rid ~size
  | Rarrayalloc { rid; n; layout } -> emit_rarrayalloc w ~rid ~n layout
  | Deleteregion { rid; frame; slot; ok } ->
      emit_deleteregion w ~rid ~frame ~slot ~ok
  | Poke { addr; v } -> emit_poke w ~addr ~v
  | Poke_bytes { addr; s } -> emit_poke_bytes w ~addr s
  | Poke_block { addr; words } -> emit_poke_block w ~addr words
  | Clear { addr; bytes } -> emit_clear w ~addr ~bytes
  | Store_ptr { addr; v } -> emit_store_ptr w ~addr ~v
  | Set_local { frame; slot; v } -> emit_set_local w ~frame ~slot ~v
  | Set_local_ptr { frame; slot; v } -> emit_set_local_ptr w ~frame ~slot ~v
  | Gc_roots roots -> emit_gc_roots w roots
  | Frame_push { nslots; ptr_slots } ->
      reserve w 21;
      wbyte w t_frame_push;
      wuv w nslots;
      wuv w (List.length ptr_slots);
      List.iter
        (fun s ->
          reserve w 10;
          wuv w s)
        ptr_slots;
      w.nrecords <- w.nrecords + 1
  | Frame_pop ->
      reserve w 1;
      wbyte w t_frame_pop;
      w.nrecords <- w.nrecords + 1
  | Mark { name; kind } ->
      let id = sid w name in
      reserve w 21;
      wbyte w t_mark;
      wuv w id;
      wuv w
        (match kind with
        | Phase_begin -> 0
        | Phase_end -> 1
        | Site_begin -> 2
        | Site_end -> 3);
      w.nrecords <- w.nrecords + 1
  | Set_mutator { mid; bump } ->
      reserve w 21;
      wbyte w t_set_mutator;
      wuv w mid;
      wuv w (if bump then 1 else 0);
      w.nrecords <- w.nrecords + 1
  | End -> invalid_arg "Trace.Format.emit: End is written by commit"

let commit w ~summary =
  if w.closed then invalid_arg "Trace.Format.commit: writer closed";
  (* Trailer: tag 0, counts, replay table sizes, flags, summary, the
     trailer's own byte offset as fixed-width LE64 (so the reader can
     seek to it), end magic. *)
  flush_buf w;
  let end_off = pos_out w.oc in
  reserve w 61;
  wbyte w 0;
  wuv w w.nrecords;
  wuv w w.nobjects;
  wuv w w.nregions;
  wuv w (match w.oslots_override with Some n -> n | None -> w.nobjects);
  wuv w (match w.rslots_override with Some n -> n | None -> w.nregions);
  wuv w (if w.recycled then 1 else 0);
  wstr w summary;
  reserve w 12;
  Bytes.set_int64_le w.wbuf w.wpos (Int64.of_int end_off);
  w.wpos <- w.wpos + 8;
  Bytes.blit_string end_magic 0 w.wbuf w.wpos 4;
  w.wpos <- w.wpos + 4;
  flush_buf w;
  close_out w.oc;
  w.closed <- true;
  Sys.rename w.tmp w.final

let abort w =
  if not w.closed then begin
    close_out_noerr w.oc;
    w.closed <- true;
    try Sys.remove w.tmp with Sys_error _ -> ()
  end

(* The one place a trace gets a process lifetime: a [.trace] file in
   the temp directory, so a caller that points
   [Filename.set_temp_dir_name] at a directory finds this process's
   traces by listing it. *)
let temp_path prefix =
  let path = Filename.temp_file prefix ".trace" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* ------------------------------------------------------------------ *)
(* Reader

   One decode engine over two sources: a whole-file string
   ([In_memory], zero refills) or a channel streamed through a
   fixed-size window ([Chan]).  The window [buf] holds body bytes
   [base, base + limit) of the file; [pos] is the cursor within it.
   [refill] is only entered with the window exhausted ([pos = limit]),
   so the channel cursor always sits at [base + limit] and sequential
   [input] calls keep the invariant without seeking.  Resident memory
   is the chunk size, independent of the trace length. *)

type src = In_memory | Chan of in_channel

type reader = {
  src : src;
  buf : Bytes.t;
  mutable base : int;
  mutable pos : int;
  mutable limit : int;
  hdr : header;
  body_start : int;
  end_off : int;
  r_records : int;
  r_objects : int;
  r_regions : int;
  r_oslots : int;
  r_rslots : int;
  r_recycled : bool;
  r_summary : string;
  mutable strs : string array;
  mutable nstrs : int;
  (* Layout intern table, keyed on the decoded ints (byte-range keys
     would not survive a refill). *)
  mutable lay_sizes : int array;
  mutable lay_offs : int array array;
  mutable lay_vals : Regions.Cleanup.layout array;
  mutable nlays : int;
  mutable scratch : int array;
  regs : int array;
      (** the decode core's output: a fixed-shape record's fields *)
  mutable closed : bool;
}

(* Slide the window forward.  Returns [false] at the end of the body;
   never reads past [end_off], so trailer bytes stay out of the
   record stream. *)
let refill r =
  if r.closed then corrupt "read on a closed reader";
  match r.src with
  | In_memory -> false
  | Chan ic ->
      r.base <- r.base + r.limit;
      r.pos <- 0;
      r.limit <- 0;
      let want = min (Bytes.length r.buf) (r.end_off - r.base) in
      if want <= 0 then false
      else begin
        let got = input ic r.buf 0 want in
        if got <= 0 then corrupt "truncated body (file shrank under the reader)";
        r.limit <- got;
        true
      end

(* At least one unconsumed byte available? *)
let more r = r.pos < r.limit || refill r

(* Body bytes not yet consumed (across future refills). *)
let body_left r = r.end_off - (r.base + r.pos)

(* Multi-byte continuation of [uv]: accumulator threading instead of a
   [ref], so the decode hot path never allocates. *)
let rec uv_slow r shift acc =
  if r.pos >= r.limit && not (refill r) then corrupt "truncated varint";
  let c = Char.code (Bytes.unsafe_get r.buf r.pos) in
  r.pos <- r.pos + 1;
  let acc = acc lor ((c land 0x7F) lsl shift) in
  if c < 0x80 then acc
  else if shift > 55 then corrupt "oversized varint"
  else uv_slow r (shift + 7) acc

let uv r =
  (* One-byte fast path (the overwhelmingly common case). *)
  let pos = r.pos in
  if pos < r.limit then begin
    let c = Char.code (Bytes.unsafe_get r.buf pos) in
    r.pos <- pos + 1;
    if c < 0x80 then c else uv_slow r 7 (c land 0x7F)
  end
  else uv_slow r 0 0

let sv r = unzigzag (uv r)

(* Element count of a variable-length payload: each element takes at
   least one body byte, so anything larger than the remaining body is
   corruption — checked before allocating, so a flipped count can
   never drive an unbounded allocation.  A 9-byte varint can decode
   negative, which is corruption too. *)
let count r =
  let n = uv r in
  if n < 0 || n > body_left r then corrupt "oversized element count";
  n

let str r =
  let n = count r in
  if n <= r.limit - r.pos then begin
    let v = Bytes.sub_string r.buf r.pos n in
    r.pos <- r.pos + n;
    v
  end
  else begin
    let out = Bytes.create n in
    let k = ref 0 in
    while !k < n do
      if r.pos >= r.limit && not (refill r) then corrupt "truncated string";
      let take = min (n - !k) (r.limit - r.pos) in
      Bytes.blit r.buf r.pos out !k take;
      r.pos <- r.pos + take;
      k := !k + take
    done;
    Bytes.unsafe_to_string out
  end

(* A classified value for the decode core: staged as kind, [a], [b]
   in [regs.(i)], [regs.(i + 1)], [regs.(i + 2)] (kind 0 = [Raw a],
   1 = [Obj (a, b)], 2 = [Reg a]; [b] is 0 unless [Obj]). *)
let value r i =
  let regs = r.regs in
  match uv r with
  | 0 ->
      regs.(i) <- 0;
      regs.(i + 1) <- sv r;
      regs.(i + 2) <- 0
  | 1 ->
      regs.(i) <- 1;
      regs.(i + 1) <- uv r;
      regs.(i + 2) <- uv r
  | 2 ->
      regs.(i) <- 2;
      regs.(i + 1) <- uv r;
      regs.(i + 2) <- 0
  | k -> corrupt "unknown value kind %d" k

(* Layouts repeat endlessly — a workload has a handful of object
   shapes — so intern them: the offsets are decoded into a scratch
   array and compared against each known layout; each distinct layout
   is validated and sorted once per reader, and the hot decode path
   allocates nothing.  The result is the layout's index in
   [lay_vals]. *)
let layout r =
  let size_bytes = uv r in
  let n = count r in
  if n > Array.length r.scratch then r.scratch <- Array.make (max 8 (2 * n)) 0;
  let sc = r.scratch in
  for i = 0 to n - 1 do
    sc.(i) <- uv r
  done;
  let matches i =
    r.lay_sizes.(i) = size_bytes
    && Array.length r.lay_offs.(i) = n
    &&
    let offs = r.lay_offs.(i) in
    let rec eq j = j >= n || (Array.unsafe_get offs j = Array.unsafe_get sc j && eq (j + 1)) in
    eq 0
  in
  let rec find i =
    if i >= r.nlays then -1 else if matches i then i else find (i + 1)
  in
  let i = find 0 in
  if i >= 0 then i
  else begin
    let offs = Array.sub sc 0 n in
    let l =
      (* Decoded fields that fail layout validation (negative size,
         out-of-range offsets) are corruption of this record, not a
         caller error — the contract is [Corrupt] for malformed
         records. *)
      try Regions.Cleanup.layout ~size_bytes ~ptr_offsets:(Array.to_list offs)
      with Invalid_argument msg -> corrupt "bad layout: %s" msg
    in
    if r.nlays >= Array.length r.lay_sizes then begin
      let cap = max 8 (2 * Array.length r.lay_sizes) in
      let ss = Array.make cap 0
      and os = Array.make cap [||]
      and vs = Array.make cap l in
      Array.blit r.lay_sizes 0 ss 0 r.nlays;
      Array.blit r.lay_offs 0 os 0 r.nlays;
      Array.blit r.lay_vals 0 vs 0 r.nlays;
      r.lay_sizes <- ss;
      r.lay_offs <- os;
      r.lay_vals <- vs
    end;
    r.lay_sizes.(r.nlays) <- size_bytes;
    r.lay_offs.(r.nlays) <- offs;
    r.lay_vals.(r.nlays) <- l;
    r.nlays <- r.nlays + 1;
    r.nlays - 1
  end

(* --- opening ------------------------------------------------------ *)

(* Raw decoding over (string, pos ref), used for header and trailer
   bytes pulled out by the envelope check. *)
let ruv s pos limit =
  let n = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    if !pos >= limit then corrupt "truncated varint";
    let c = Char.code s.[!pos] in
    incr pos;
    n := !n lor ((c land 0x7F) lsl !shift);
    shift := !shift + 7;
    if c < 0x80 then cont := false
    else if !shift > 62 then corrupt "oversized varint"
  done;
  !n

let rstr s pos limit =
  let n = ruv s pos limit in
  if !pos + n > limit then corrupt "truncated string";
  let v = String.sub s !pos n in
  pos := !pos + n;
  v

let default_chunk = 1 lsl 18

(* A trailer is a handful of varints plus the summary line; cap how
   much a corrupt backpointer can make us read. *)
let trailer_cap = 1 lsl 20
let header_cap = 1 lsl 16

(* Validate magic / version / end magic / backpointer through a
   positioned read function, reading O(1) bytes — this is the cheap
   seek-to-end seal check, shared by both open paths. *)
let validate_envelope ~len ~read_at =
  if len < 4 + 1 + 12 then corrupt "file too short";
  let head = read_at 0 5 in
  if String.sub head 0 4 <> magic then corrupt "bad magic";
  if Char.code head.[4] <> version then
    corrupt "unsupported trace version %d" (Char.code head.[4]);
  let tail = read_at (len - 12) 12 in
  if String.sub tail 8 4 <> end_magic then
    corrupt "missing end magic (truncated or torn trace)";
  let end_off = Int64.to_int (String.get_int64_le tail 0) in
  if end_off < 5 || end_off >= len - 12 then corrupt "bad trailer offset";
  if len - 12 - end_off > trailer_cap then
    corrupt "bad trailer offset (oversized trailer)";
  end_off

type envelope = {
  e_hdr : header;
  e_body_start : int;
  e_end_off : int;
  e_records : int;
  e_objects : int;
  e_regions : int;
  e_oslots : int;
  e_rslots : int;
  e_recycled : bool;
  e_summary : string;
}

let read_envelope ~len ~read_at =
  let end_off = validate_envelope ~len ~read_at in
  (* Trailer *)
  let tdata = read_at end_off (len - 12 - end_off) in
  let tlimit = String.length tdata in
  let tpos = ref 0 in
  if Char.code tdata.[0] <> 0 then corrupt "trailer tag mismatch";
  incr tpos;
  let e_records = ruv tdata tpos tlimit in
  let e_objects = ruv tdata tpos tlimit in
  let e_regions = ruv tdata tpos tlimit in
  let e_oslots = ruv tdata tpos tlimit in
  let e_rslots = ruv tdata tpos tlimit in
  let flags = ruv tdata tpos tlimit in
  let e_summary = rstr tdata tpos tlimit in
  if !tpos <> tlimit then corrupt "trailing bytes after trailer";
  (* Header (bounded read: headers are a few short strings) *)
  let hdata = read_at 5 (min header_cap (end_off - 5)) in
  let hlimit = String.length hdata in
  let hpos = ref 0 in
  let workload = rstr hdata hpos hlimit in
  let variant = rstr hdata hpos hlimit in
  let mode = rstr hdata hpos hlimit in
  let size = rstr hdata hpos hlimit in
  let seed = ruv hdata hpos hlimit in
  let build_id = rstr hdata hpos hlimit in
  {
    e_hdr = { workload; variant; mode; size; seed; build_id };
    e_body_start = 5 + !hpos;
    e_end_off = end_off;
    e_records;
    e_objects;
    e_regions;
    e_oslots;
    e_rslots;
    e_recycled = flags land 1 <> 0;
    e_summary;
  }

let reader_of_envelope e ~src ~buf ~base ~pos ~limit =
  {
    src;
    buf;
    base;
    pos;
    limit;
    hdr = e.e_hdr;
    body_start = e.e_body_start;
    end_off = e.e_end_off;
    r_records = e.e_records;
    r_objects = e.e_objects;
    r_regions = e.e_regions;
    r_oslots = e.e_oslots;
    r_rslots = e.e_rslots;
    r_recycled = e.e_recycled;
    r_summary = e.e_summary;
    strs = Array.make 16 "";
    nstrs = 0;
    lay_sizes = [||];
    lay_offs = [||];
    lay_vals = [||];
    nlays = 0;
    scratch = Array.make 8 0;
    regs = Array.make 6 0;
    closed = false;
  }

let open_file ?(chunk = default_chunk) path =
  let chunk = max 1 chunk in
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      try
        let len = in_channel_length ic in
        let read_at off n =
          seek_in ic off;
          really_input_string ic n
        in
        let e = read_envelope ~len ~read_at in
        seek_in ic e.e_body_start;
        Ok
          (reader_of_envelope e ~src:(Chan ic) ~buf:(Bytes.create chunk)
             ~base:e.e_body_start ~pos:0 ~limit:0)
      with
      | Corrupt msg ->
          close_in_noerr ic;
          Error (Printf.sprintf "%s: %s" path msg)
      | End_of_file ->
          close_in_noerr ic;
          Error (Printf.sprintf "%s: truncated file" path)
      | Sys_error msg ->
          close_in_noerr ic;
          Error msg)

let of_string ~name data =
  try
    let len = String.length data in
    let read_at off n = String.sub data off n in
    let e = read_envelope ~len ~read_at in
    (* [buf] is never written: [refill] returns before touching it
       when the source is [In_memory]. *)
    Ok
      (reader_of_envelope e ~src:In_memory
         ~buf:(Bytes.unsafe_of_string data) ~base:0 ~pos:e.e_body_start
         ~limit:e.e_end_off)
  with Corrupt msg -> Error (Printf.sprintf "%s: %s" name msg)

let open_in_memory path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (Printf.sprintf "%s: truncated file" path)
  | data -> of_string ~name:path data

let close r =
  if not r.closed then begin
    r.closed <- true;
    r.pos <- 0;
    r.limit <- 0;
    match r.src with Chan ic -> close_in_noerr ic | In_memory -> ()
  end

let header r = r.hdr
let summary r = r.r_summary
let records r = r.r_records
let objects r = r.r_objects
let regions r = r.r_regions
let obj_slots r = r.r_oslots
let reg_slots r = r.r_rslots
let recycled r = r.r_recycled

let reset r =
  if r.closed then invalid_arg "Trace.Format.reset: reader closed";
  r.nstrs <- 0;
  match r.src with
  | In_memory -> r.pos <- r.body_start
  | Chan ic ->
      seek_in ic r.body_start;
      r.base <- r.body_start;
      r.pos <- 0;
      r.limit <- 0

let add_str r s =
  if r.nstrs = Array.length r.strs then begin
    let bigger = Array.make (2 * r.nstrs) "" in
    Array.blit r.strs 0 bigger 0 r.nstrs;
    r.strs <- bigger
  end;
  r.strs.(r.nstrs) <- s;
  r.nstrs <- r.nstrs + 1

(* ------------------------------------------------------------------ *)
(* The decode core

   [step] decodes one record and returns its tag, or 0 (the trailer's
   tag) at the end of the body.  A fixed-shape record — every field a
   varint or a classified value — leaves its fields in [r.regs] and the
   cursor past the record; ralloc's and rarrayalloc's layout is staged
   as its index in [lay_vals].  A record with a variable-length payload
   (frame push, byte and block pokes, root snapshots) leaves the cursor
   on the payload, which {!record_of} decodes.  String definitions are
   consumed here.  [next], [next_fused] and [dispatch] all decode
   through [step], so there is one decoder.

   It has two paths.  The fast path runs whenever the window holds
   [fast_room] bytes past the cursor, enough for any fixed-shape record
   whose varints are at most 8 bytes long: the cursor stays in a local,
   varints are read with no bounds check (one and two bytes inline,
   longer ones in one call that allocates nothing), and [r.pos] is
   written once.  Near the window end, and for anything the
   fast path does not expect — a varint of 9 bytes or more, an unknown
   tag or value kind — the record is decoded from its first byte by the
   checked path: byte by byte through [uv], refilling as needed, with
   every [Corrupt] check.  So the fast path itself never raises. *)

(* The tag of a store_ptr plus two values of a kind byte and two
   8-byte varints each: the longest read of the fast path. *)
let fast_room = 35

let[@inline] byte buf p = Char.code (Bytes.unsafe_get buf p)

(* Varints for the fast path, as [v lsl 4 lor len]: the value and its
   length in bytes.  One longer than 8 bytes gives -8: negative, so the
   caller sends the record to the checked path, and of length 8, so the
   reads after it stay within [fast_room]. *)
let rec fuv_more buf p k acc =
  let c = byte buf (p + k) in
  let acc = acc lor ((c land 0x7F) lsl (7 * k)) in
  if c < 0x80 then (acc lsl 4) lor (k + 1)
  else if k = 7 then -8
  else fuv_more buf p (k + 1) acc

let[@inline] fuv buf p =
  let c = byte buf p in
  if c < 0x80 then (c lsl 4) lor 1
  else
    let c1 = byte buf (p + 1) in
    if c1 < 0x80 then (((c1 lsl 7) lor (c land 0x7F)) lsl 4) lor 2
    else fuv_more buf p 2 (((c1 land 0x7F) lsl 7) lor (c land 0x7F))

(* The fast path's classified value at [q], staged like {!value};
   returns the position after it, or -1 for the checked path. *)
let[@inline] fvalue regs buf q i =
  let kind = byte buf q in
  let x = fuv buf (q + 1) in
  let q = q + 1 + (x land 15) in
  Array.unsafe_set regs i kind;
  if kind = 1 then begin
    let y = fuv buf q in
    Array.unsafe_set regs (i + 1) (x lsr 4);
    Array.unsafe_set regs (i + 2) (y lsr 4);
    if x lor y < 0 then -1 else q + (y land 15)
  end
  else begin
    Array.unsafe_set regs (i + 1) (if kind = 0 then unzigzag (x lsr 4) else x lsr 4);
    Array.unsafe_set regs (i + 2) 0;
    if x < 0 || kind > 2 then -1 else q
  end

(* The checked path: it stages what [step]'s fast path stages, one
   [uv] per field. *)
let rec checked r =
  if not (more r) then 0
  else begin
    let tag = byte r.buf r.pos in
    r.pos <- r.pos + 1;
    let regs = r.regs in
    match tag with
    | 1 (* malloc *) | 2 (* free *) ->
        regs.(0) <- uv r;
        tag
    | 4 (* newregion *) | 10 (* frame_pop *)
    | 9 (* frame_push *) | 13 (* poke_bytes *) | 14 (* poke_block *)
    | 20 (* gc_roots *) ->
        tag
    | 5 (* ralloc *) ->
        regs.(0) <- uv r;
        regs.(1) <- layout r;
        tag
    | 6 (* rstralloc *) | 16 (* clear *) | 21 (* mark *)
    | 23 (* set_mutator *) ->
        regs.(0) <- uv r;
        regs.(1) <- uv r;
        tag
    | 11 (* poke *) ->
        regs.(0) <- uv r;
        regs.(1) <- sv r;
        tag
    | 7 (* rarrayalloc *) ->
        regs.(0) <- uv r;
        regs.(1) <- uv r;
        regs.(2) <- layout r;
        tag
    | 8 (* deleteregion *) ->
        for i = 0 to 3 do
          regs.(i) <- uv r
        done;
        tag
    | 17 (* store_ptr *) ->
        value r 0;
        value r 3;
        tag
    | 18 (* set_local *) | 19 (* set_local_ptr *) ->
        regs.(0) <- uv r;
        regs.(1) <- uv r;
        value r 2;
        tag
    | 22 (* strdef *) ->
        add_str r (str r);
        checked r
    | _ -> corrupt "unknown record tag %d" tag
  end

let[@inline] step r =
  let p = r.pos in
  if r.limit - p < fast_room then checked r
  else
    let buf = r.buf and regs = r.regs in
    let tag = byte buf p in
    match tag with
    | 1 (* malloc *) | 2 (* free *) ->
        let x = fuv buf (p + 1) in
        if x < 0 then checked r
        else begin
          Array.unsafe_set regs 0 (x lsr 4);
          r.pos <- p + 1 + (x land 15);
          tag
        end
    | 4 (* newregion *) | 10 (* frame_pop *)
    | 9 (* frame_push *) | 13 (* poke_bytes *) | 14 (* poke_block *)
    | 20 (* gc_roots *) ->
        r.pos <- p + 1;
        tag
    | 6 (* rstralloc *) | 11 (* poke *) | 16 (* clear *) | 21 (* mark *)
    | 23 (* set_mutator *) ->
        let x = fuv buf (p + 1) in
        let q = p + 1 + (x land 15) in
        let y = fuv buf q in
        if x lor y < 0 then checked r
        else begin
          Array.unsafe_set regs 0 (x lsr 4);
          Array.unsafe_set regs 1 (if tag = 11 then unzigzag (y lsr 4) else y lsr 4);
          r.pos <- q + (y land 15);
          tag
        end
    | 17 (* store_ptr *) ->
        let q = fvalue regs buf (p + 1) 0 in
        let q = if q < 0 then q else fvalue regs buf q 3 in
        if q < 0 then checked r
        else begin
          r.pos <- q;
          tag
        end
    | 18 (* set_local *) | 19 (* set_local_ptr *) ->
        let x = fuv buf (p + 1) in
        let q = p + 1 + (x land 15) in
        let y = fuv buf q in
        let q = fvalue regs buf (q + (y land 15)) 2 in
        if x lor y lor q < 0 then checked r
        else begin
          Array.unsafe_set regs 0 (x lsr 4);
          Array.unsafe_set regs 1 (y lsr 4);
          r.pos <- q;
          tag
        end
    | 8 (* deleteregion *) ->
        let x0 = fuv buf (p + 1) in
        let q = p + 1 + (x0 land 15) in
        let x1 = fuv buf q in
        let q = q + (x1 land 15) in
        let x2 = fuv buf q in
        let q = q + (x2 land 15) in
        let x3 = fuv buf q in
        if x0 lor x1 lor x2 lor x3 < 0 then checked r
        else begin
          Array.unsafe_set regs 0 (x0 lsr 4);
          Array.unsafe_set regs 1 (x1 lsr 4);
          Array.unsafe_set regs 2 (x2 lsr 4);
          Array.unsafe_set regs 3 (x3 lsr 4);
          r.pos <- q + (x3 land 15);
          tag
        end
    | 5 (* ralloc *) ->
        let x = fuv buf (p + 1) in
        if x < 0 then checked r
        else begin
          r.pos <- p + 1 + (x land 15);
          Array.unsafe_set regs 0 (x lsr 4);
          Array.unsafe_set regs 1 (layout r);
          tag
        end
    | 7 (* rarrayalloc *) ->
        let x = fuv buf (p + 1) in
        let q = p + 1 + (x land 15) in
        let y = fuv buf q in
        if x lor y < 0 then checked r
        else begin
          r.pos <- q + (y land 15);
          Array.unsafe_set regs 0 (x lsr 4);
          Array.unsafe_set regs 1 (y lsr 4);
          Array.unsafe_set regs 2 (layout r);
          tag
        end
    | _ -> checked r

let[@inline] reg r i = Array.unsafe_get r.regs i

let value_of kind a b =
  if kind = 0 then Raw a else if kind = 1 then Obj (a, b) else Reg a

(* The record [step] just decoded, its payload read here when it has a
   variable-length one. *)
let record_of r tag =
  match tag with
  | 0 -> End
  | 1 -> Malloc { size = reg r 0 }
  | 2 -> Free { id = reg r 0 }
  | 4 -> Newregion
  | 5 -> Ralloc { rid = reg r 0; layout = r.lay_vals.(reg r 1) }
  | 6 -> Rstralloc { rid = reg r 0; size = reg r 1 }
  | 7 -> Rarrayalloc { rid = reg r 0; n = reg r 1; layout = r.lay_vals.(reg r 2) }
  | 8 -> Deleteregion { rid = reg r 0; frame = reg r 1; slot = reg r 2; ok = reg r 3 <> 0 }
  | 9 ->
      let nslots = uv r in
      let n = count r in
      let ptr_slots = List.init n (fun _ -> uv r) in
      Frame_push { nslots; ptr_slots }
  | 10 -> Frame_pop
  | 11 -> Poke { addr = reg r 0; v = reg r 1 }
  | 13 ->
      let addr = uv r in
      let s = str r in
      Poke_bytes { addr; s }
  | 14 ->
      let addr = uv r in
      let n = count r in
      let words = Array.init n (fun _ -> sv r) in
      Poke_block { addr; words }
  | 16 -> Clear { addr = reg r 0; bytes = reg r 1 }
  | 17 ->
      Store_ptr
        {
          addr = value_of (reg r 0) (reg r 1) (reg r 2);
          v = value_of (reg r 3) (reg r 4) (reg r 5);
        }
  | 18 -> Set_local { frame = reg r 0; slot = reg r 1; v = value_of (reg r 2) (reg r 3) (reg r 4) }
  | 19 ->
      Set_local_ptr { frame = reg r 0; slot = reg r 1; v = value_of (reg r 2) (reg r 3) (reg r 4) }
  | 20 ->
      let n = count r in
      Gc_roots (Array.init n (fun _ -> sv r))
  | 21 ->
      let id = reg r 0 in
      let kind =
        match reg r 1 with
        | 0 -> Phase_begin
        | 1 -> Phase_end
        | 2 -> Site_begin
        | 3 -> Site_end
        | k -> corrupt "unknown mark kind %d" k
      in
      if id < 0 || id >= r.nstrs then corrupt "undefined string id %d" id;
      Mark { name = r.strs.(id); kind }
  | 23 -> Set_mutator { mid = reg r 0; bump = reg r 1 <> 0 }
  | _ -> corrupt "unknown record tag %d" tag

let next r = record_of r (step r)

let rec next_fused r ~poke ~resolve ~store =
  let tag = step r in
  if tag = t_poke then begin
    poke ~addr:(reg r 0) ~v:(reg r 1);
    next_fused r ~poke ~resolve ~store
  end
  else if tag = t_store_ptr then begin
    let addr = resolve (reg r 0) (reg r 1) (reg r 2) in
    let v = resolve (reg r 3) (reg r 4) (reg r 5) in
    store ~addr ~v;
    next_fused r ~poke ~resolve ~store
  end
  else record_of r tag

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

let rec dispatch r h =
  let tag = step r in
  match tag with
  | 1 ->
      h.malloc ~size:(reg r 0);
      dispatch r h
  | 2 ->
      h.free ~id:(reg r 0);
      dispatch r h
  | 4 ->
      h.newregion ();
      dispatch r h
  | 5 ->
      h.ralloc ~rid:(reg r 0) r.lay_vals.(reg r 1);
      dispatch r h
  | 6 ->
      h.rstralloc ~rid:(reg r 0) ~size:(reg r 1);
      dispatch r h
  | 7 ->
      h.rarrayalloc ~rid:(reg r 0) ~n:(reg r 1) r.lay_vals.(reg r 2);
      dispatch r h
  | 8 ->
      h.deleteregion ~rid:(reg r 0) ~frame:(reg r 1) ~slot:(reg r 2)
        ~ok:(reg r 3 <> 0);
      dispatch r h
  | 11 ->
      h.poke ~addr:(reg r 0) ~v:(reg r 1);
      dispatch r h
  | 16 ->
      h.clear ~addr:(reg r 0) ~bytes:(reg r 1);
      dispatch r h
  | 17 ->
      let addr = h.resolve (reg r 0) (reg r 1) (reg r 2) in
      let v = h.resolve (reg r 3) (reg r 4) (reg r 5) in
      h.store_ptr ~addr ~v;
      dispatch r h
  | 18 ->
      h.set_local ~frame:(reg r 0) ~slot:(reg r 1)
        ~v:(h.resolve (reg r 2) (reg r 3) (reg r 4));
      dispatch r h
  | 19 ->
      h.set_local_ptr ~frame:(reg r 0) ~slot:(reg r 1)
        ~v:(h.resolve (reg r 2) (reg r 3) (reg r 4));
      dispatch r h
  | 23 ->
      h.set_mutator ~mid:(reg r 0) ~bump:(reg r 1 <> 0);
      dispatch r h
  | _ -> record_of r tag
