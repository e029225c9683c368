(* The trace record/replay engine: the binary format round-trips
   byte-for-byte, damage (truncation, torn trailing records) is
   rejected rather than misread, a recorded workload replays to the
   same allocator-side counts as full execution. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let tmp_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "trace-test-%d-%d.trace" (Unix.getpid ()) !n)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  output_string oc s;
  close_out oc

let hdr =
  {
    Trace.Format.workload = "synthetic";
    variant = "malloc";
    mode = "lea";
    size = "quick";
    seed = 42;
    build_id = "test-build";
  }

(* A record stream exercising every constructor a workload trace can
   contain, including a layout that appears twice (the reader interns
   layouts by their encoded bytes — both sightings must decode to the
   same value) and one that appears once. *)
let sample_records =
  let open Trace.Format in
  let lay_a = Regions.Cleanup.layout ~size_bytes:12 ~ptr_offsets:[ 0; 8 ] in
  let lay_b = Regions.Cleanup.layout ~size_bytes:40 ~ptr_offsets:[] in
  [
    Malloc { size = 40 };
    Newregion;
    Ralloc { rid = 0; layout = lay_a };
    Rstralloc { rid = 0; size = 17 };
    Rarrayalloc { rid = 0; n = 3; layout = lay_b };
    Ralloc { rid = 0; layout = lay_a };
    Frame_push { nslots = 2; ptr_slots = [ 0; 1 ] };
    Set_local { frame = 0; slot = 0; v = Raw 5 };
    Set_local_ptr { frame = 0; slot = 1; v = Obj (0, 4) };
    Store_ptr { addr = Obj (0, 0); v = Reg 0 };
    Poke { addr = 100; v = 42 };
    Poke { addr = 104; v = -7 };
    Poke_bytes { addr = 104; s = "hi\000there" };
    Poke_block { addr = 108; words = [| 1; 2; 3 |] };
    Clear { addr = 120; bytes = 16 };
    Gc_roots [| 4; 8; 512 |];
    Mark { name = "parse"; kind = Phase_begin };
    Mark { name = "parse"; kind = Phase_end };
    Deleteregion { rid = 0; frame = 0; slot = 0; ok = true };
    Frame_pop;
    Free { id = 0 };
  ]

let write_sample path =
  let w = Trace.Format.create_writer ~path hdr in
  List.iter (Trace.Format.emit w) sample_records;
  Trace.Format.commit w ~summary:"synthetic summary"

let drain r =
  let rec go acc =
    match Trace.Format.next r with
    | Trace.Format.End -> List.rev acc
    | rec_ -> go (rec_ :: acc)
  in
  go []

let test_roundtrip () =
  let path = tmp_path () in
  write_sample path;
  (match Trace.Format.open_file path with
  | Error e -> Alcotest.failf "open failed: %s" e
  | Ok r ->
      let h = Trace.Format.header r in
      check_str "workload survives" hdr.workload h.Trace.Format.workload;
      check_str "variant survives" hdr.variant h.Trace.Format.variant;
      check_int "seed survives" hdr.seed h.Trace.Format.seed;
      check_str "summary survives" "synthetic summary" (Trace.Format.summary r);
      check_int "record count" (List.length sample_records)
        (Trace.Format.records r);
      check_int "object count" 5 (Trace.Format.objects r);
      check_int "region count" 1 (Trace.Format.regions r);
      check_bool "records round-trip structurally" true
        (drain r = sample_records);
      (* reset rewinds to the first record. *)
      Trace.Format.reset r;
      check_bool "reset replays identically" true (drain r = sample_records);
      Trace.Format.close r);
  Sys.remove path

(* The specialized hot-path emitters promise byte-equivalence with the
   generic [emit] — the reader cannot tell which was used. *)
let test_specialized_emitters_byte_equal () =
  let generic = tmp_path () and special = tmp_path () in
  let open Trace.Format in
  let lay = Regions.Cleanup.layout ~size_bytes:12 ~ptr_offsets:[ 0; 8 ] in
  let w = create_writer ~path:generic hdr in
  emit w (Malloc { size = 24 });
  emit w (Poke { addr = 40; v = 99 });
  emit w (Poke_bytes { addr = 44; s = "abc" });
  emit w (Poke_block { addr = 48; words = [| 7; 8 |] });
  emit w (Clear { addr = 60; bytes = 8 });
  emit w (Gc_roots [| 1; 2 |]);
  emit w (Free { id = 0 });
  emit w Newregion;
  emit w (Ralloc { rid = 0; layout = lay });
  emit w (Rstralloc { rid = 0; size = 9 });
  emit w (Rarrayalloc { rid = 0; n = 4; layout = lay });
  emit w (Store_ptr { addr = Obj (1, 4); v = Reg 0 });
  emit w (Set_local { frame = 1; slot = 2; v = Raw (-5) });
  emit w (Set_local_ptr { frame = 1; slot = 3; v = Obj (2, 0) });
  emit w (Deleteregion { rid = 0; frame = 0; slot = 1; ok = true });
  commit w ~summary:"s";
  let w = create_writer ~path:special hdr in
  emit_malloc w ~size:24;
  emit_poke w ~addr:40 ~v:99;
  emit_poke_bytes w ~addr:44 "abc";
  emit_poke_block w ~addr:48 [| 7; 8 |];
  emit_clear w ~addr:60 ~bytes:8;
  emit_gc_roots w [| 1; 2 |];
  emit_free w ~id:0;
  emit_newregion w;
  emit_ralloc w ~rid:0 lay;
  emit_rstralloc w ~rid:0 ~size:9;
  emit_rarrayalloc w ~rid:0 ~n:4 lay;
  emit_store_ptr w ~addr:(Obj (1, 4)) ~v:(Reg 0);
  emit_set_local w ~frame:1 ~slot:2 ~v:(Raw (-5));
  emit_set_local_ptr w ~frame:1 ~slot:3 ~v:(Obj (2, 0));
  emit_deleteregion w ~rid:0 ~frame:0 ~slot:1 ~ok:true;
  commit w ~summary:"s";
  check_str "identical bytes" (read_file generic) (read_file special);
  Sys.remove generic;
  Sys.remove special

(* [next_fused] consumes [Poke] and [Store_ptr] records through
   int-only callbacks; the pokes and packed components it delivers must
   agree with the records and [value]s [next] decodes. *)
let test_next_fused () =
  let path = tmp_path () in
  write_sample path;
  (match Trace.Format.open_file path with
  | Error e -> Alcotest.failf "open failed: %s" e
  | Ok r ->
      let pack kind a b = (kind lsl 40) lxor (a lsl 20) lxor b in
      let pack_value =
        let open Trace.Format in
        function
        | Raw v -> pack 0 v 0
        | Obj (id, delta) -> pack 1 id delta
        | Reg rid -> pack 2 rid 0
      in
      let pokes = ref [] and stores = ref [] in
      let poke ~addr ~v = pokes := (addr, v) :: !pokes in
      let store ~addr ~v = stores := (addr, v) :: !stores in
      let rec go acc =
        match Trace.Format.next_fused r ~poke ~resolve:pack ~store with
        | Trace.Format.End -> List.rev acc
        | rec_ -> go (rec_ :: acc)
      in
      let rest = go [] in
      check_bool "pokes via the callback" true
        (List.rev !pokes = [ (100, 42); (104, -7) ]);
      let expected_stores =
        List.filter_map
          (function
            | Trace.Format.Store_ptr { addr; v } ->
                Some (pack_value addr, pack_value v)
            | _ -> None)
          sample_records
      in
      check_bool "store values delivered component-wise" true
        (List.rev !stores = expected_stores);
      let expected =
        List.filter
          (function
            | Trace.Format.Poke _ | Trace.Format.Store_ptr _ -> false
            | _ -> true)
          sample_records
      in
      check_bool "other records unchanged" true (rest = expected);
      Trace.Format.close r);
  Sys.remove path

(* [repro replay PATH MODE] must reject [path]: exit 2, with the error
   reported against the file. *)
let expect_replay_rejected label path mode =
  let exe = Filename.concat (Sys.getcwd ()) "../bin/main.exe" in
  let err = tmp_path () in
  let code =
    Sys.command
      (Printf.sprintf "%s replay %s %s >/dev/null 2>%s"
         (Filename.quote exe) (Filename.quote path) mode (Filename.quote err))
  in
  let msg = read_file err in
  Sys.remove err;
  check_int (label ^ ": exit status") 2 code;
  check_bool (label ^ ": reported against the file") true
    (String.starts_with ~prefix:(Printf.sprintf "replay: %s: " path) msg)

(* Bad trace input to [repro replay] fails closed: a body that decodes
   corrupt and a variant that cannot serve the requested column are
   reported against the file with exit 2, like a trace that fails to
   open. *)
let test_replay_cli_bad_trace () =
  let path = tmp_path () in
  Trace.Gen.generate ~out:path { Trace.Gen.default with objects = 2_000 };
  expect_replay_rejected "malloc trace under region" path "region";
  (* One flipped body byte: the trace still opens, decoding fails. *)
  let data = Bytes.of_string (read_file path) in
  Bytes.set data 1000 (Char.chr (Char.code (Bytes.get data 1000) lxor 0xff));
  write_file path (Bytes.to_string data);
  (match Trace.Format.open_file path with
  | Ok r -> Trace.Format.close r
  | Error e -> Alcotest.failf "flipped trace should still open: %s" e);
  expect_replay_rejected "corrupt body" path "lea";
  Sys.remove path

(* Tags 3, 12 and 15 once carried [Realloc], [Poke_byte] and
   [Poke_obj], records no workload, generator or command wrote.  A
   trace carrying one is rejected like any unknown tag, by both
   decoders and by [repro replay].  Each retired tag replaces the tag
   of a live record whose payload has the retired record's shape
   (Realloc: two varints; Poke_byte: two; Poke_obj: three). *)
let test_retired_tags_rejected () =
  let open Trace.Format in
  let write path records =
    let w = create_writer ~path hdr in
    List.iter (emit w) records;
    commit w ~summary:"retired tag"
  in
  List.iter
    (fun (tag, donor) ->
      let prefix = [ Malloc { size = 40 } ] in
      let before = tmp_path () and path = tmp_path () in
      write before prefix;
      write path (prefix @ [ donor; Free { id = 0 } ]);
      (* The donor's tag byte is the first byte where the two files
         differ: the shorter one has its trailer tag (0) there. *)
      let a = read_file before and b = Bytes.of_string (read_file path) in
      Sys.remove before;
      let i = ref 0 in
      while a.[!i] = Bytes.get b !i do incr i done;
      Bytes.set b !i (Char.chr tag);
      write_file path (Bytes.to_string b);
      let expected = Printf.sprintf "unknown record tag %d" tag in
      let decode label next =
        match open_file path with
        | Error e -> Alcotest.failf "tag %d: trace should still open: %s" tag e
        | Ok r ->
            let rec go () = match next r with End -> () | _ -> go () in
            (match go () with
            | () -> Alcotest.failf "tag %d: %s decoded to End" tag label
            | exception Corrupt msg ->
                check_str (Printf.sprintf "tag %d: %s" tag label) expected msg);
            close r
      in
      decode "next" next;
      decode "next_fused"
        (next_fused
           ~poke:(fun ~addr:_ ~v:_ -> ())
           ~resolve:(fun _ a _ -> a)
           ~store:(fun ~addr:_ ~v:_ -> ()));
      expect_replay_rejected (Printf.sprintf "tag %d" tag) path "lea";
      Sys.remove path)
    [
      (3, Rstralloc { rid = 0; size = 24 });
      (12, Clear { addr = 64; bytes = 8 });
      (15, Frame_push { nslots = 2; ptr_slots = [ 6 ] });
    ]

let expect_error label = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: damaged trace accepted" label

let test_damage_rejected () =
  let path = tmp_path () in
  write_sample path;
  let good = read_file path in
  let damaged = tmp_path () in
  let open_damaged s =
    write_file damaged s;
    Trace.Format.open_file damaged
  in
  (* Truncation anywhere — mid-header, mid-body, mid-trailer — must be
     an open error, never a short read. *)
  expect_error "empty file" (open_damaged "");
  expect_error "header only"
    (open_damaged (String.sub good 0 (min 20 (String.length good))));
  expect_error "mid-body truncation"
    (open_damaged (String.sub good 0 (String.length good / 2)));
  expect_error "trailer cut"
    (open_damaged (String.sub good 0 (String.length good - 5)));
  expect_error "bad magic" (open_damaged ("XXXX" ^ String.sub good 4 (String.length good - 4)));
  (match
     open_damaged
       (String.sub good 0 4 ^ "\002" ^ String.sub good 5 (String.length good - 5))
   with
  | Error msg ->
      check_str "v2 header refused at open"
        (damaged ^ ": unsupported trace version 2")
        msg
  | Ok _ -> Alcotest.fail "v2 header: trace accepted");
  (* A torn trailing record: framing intact (magic, trailer) but the
     last record's bytes are cut short.  The reader must raise
     [Corrupt] at that record, not fabricate one.  Setting the final
     body byte's continuation bit makes its varint run into the
     trailer. *)
  let b = Bytes.of_string good in
  let len = Bytes.length b in
  let end_off = Int64.to_int (Bytes.get_int64_le b (len - 12)) in
  Bytes.set b (end_off - 1) '\xFF';
  (match open_damaged (Bytes.to_string b) with
  | Error _ -> ()  (* also acceptable: rejected at open *)
  | Ok r -> (
      match
        let rec go () =
          match Trace.Format.next r with
          | Trace.Format.End -> ()
          | _ -> go ()
        in
        go ()
      with
      | () -> Alcotest.fail "torn trailing record read to End"
      | exception Trace.Format.Corrupt _ -> Trace.Format.close r));
  Sys.remove path;
  Sys.remove damaged

(* ------------------------------------------------------------------ *)
(* Streaming reader == in-memory reader, on arbitrary traces and
   chunk sizes down to a single byte.  The streaming reader's refill
   window cuts records, strings and varints at every possible byte
   boundary; the decoded stream must not care. *)

(* A deterministic pseudo-random record list covering every
   constructor, with field values spread across the varint size
   classes (one-byte, multi-byte, negative). *)
let random_records ?(wide = false) seed len =
  let open Trace.Format in
  let s = ref (((seed * 2654435761) land 0x3FFFFFFF) + 1) in
  let rnd m =
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod m
  in
  (* [wide]: free-form fields take every varint length, 1 to 9 bytes,
     up to [max_int] (signed ones up to 2^61, the zigzag range), so
     both the decoder's inline varints and its long-varint fallback
     run. *)
  let st = Random.State.make [| seed |] in
  let wide_nat bits =
    let r = Random.State.bits64 st |> Int64.to_int in
    let bits = min bits (7 * (1 + Random.State.int st 9)) in
    if bits >= 62 then r land max_int else r land ((1 lsl bits) - 1)
  in
  let nat m = if wide then wide_nat 62 else rnd m in
  (* For fields the generator scales or offsets: 9-byte values still,
     and no overflow. *)
  let scaled m = if wide then wide_nat 59 else rnd m in
  let int m =
    if not wide then rnd m - (m / 2)
    else if Random.State.bool st then wide_nat 61
    else -1 - wide_nat 61
  in
  let lay () =
    Regions.Cleanup.layout
      ~size_bytes:(4 + (4 * rnd 8))
      ~ptr_offsets:(if rnd 2 = 0 then [] else [ 0 ])
  in
  (* Fields stay inline, not bound with [let]: the order in which they
     draw from [rnd] fixes each seed's records, and the properties
     below keep their data only while that order holds. *)
  let value () =
    match rnd 3 with
    | 0 -> Raw (int 100_000)
    | 1 -> Obj (nat 64, 4 * scaled 16)
    | _ -> Reg (nat 8)
  in
  List.init len (fun _ ->
      match rnd 17 with
      | 0 -> Malloc { size = 1 + scaled 5000 }
      | 1 -> Free { id = nat 64 }
      | 2 -> Poke { addr = 4 * scaled 100_000; v = int 100_000 }
      | 3 ->
          Poke_bytes
            {
              addr = nat 100_000;
              s = String.init (rnd 12) (fun i -> Char.chr (((i * 37) + rnd 256) land 0xFF));
            }
      | 4 -> Poke_block { addr = 4 * scaled 100_000; words = Array.init (rnd 6) (fun i -> i - 2) }
      | 5 -> Clear { addr = 4 * scaled 100_000; bytes = 4 * scaled 32 }
      | 6 -> Gc_roots (Array.init (rnd 5) (fun i -> 4 * (i + rnd 1000)))
      | 7 -> Newregion
      | 8 -> Ralloc { rid = nat 8; layout = lay () }
      | 9 -> Rstralloc { rid = nat 8; size = 1 + scaled 300 }
      | 10 -> Rarrayalloc { rid = nat 8; n = 1 + scaled 5; layout = lay () }
      | 11 -> Store_ptr { addr = value (); v = value () }
      | 12 -> Frame_push { nslots = 1 + rnd 4; ptr_slots = [ 0 ] }
      | 13 -> Set_local { frame = nat 4; slot = nat 4; v = value () }
      | 14 -> Set_local_ptr { frame = nat 4; slot = nat 4; v = value () }
      | 15 -> Deleteregion { rid = nat 8; frame = nat 4; slot = nat 4; ok = rnd 2 = 0 }
      | _ -> Mark { name = "m"; kind = (if rnd 2 = 0 then Phase_begin else Phase_end) })

(* Fully decode a reader through the fused hot path, capturing every
   callback delivery, so two readers can be compared on the exact
   stream replay consumes. *)
let fused_stream r =
  let pack kind a b = (kind lsl 40) lxor (a lsl 20) lxor b in
  let pokes = ref [] and stores = ref [] in
  let poke ~addr ~v = pokes := (addr, v) :: !pokes in
  let store ~addr ~v = stores := (addr, v) :: !stores in
  let rec go acc =
    match Trace.Format.next_fused r ~poke ~resolve:pack ~store with
    | Trace.Format.End -> List.rev acc
    | rec_ -> go (rec_ :: acc)
  in
  let rest = go [] in
  (rest, List.rev !pokes, List.rev !stores)

(* The three decoders of [Trace.Format] as record streams, each ending
   in [None] (the end of the body) or [Some msg] (the [Corrupt] that
   stopped it), so that any two can be compared on every record and
   int they deliver.  [next_fused] and [dispatch] hand over ints:
   their streams are rebuilt as records, each classified value from
   the components [resolve] saw (it answers with the value's index in
   a table). *)
let decode_with f =
  let out = ref [] in
  let values = Hashtbl.create 64 in
  let resolve kind a b =
    let i = Hashtbl.length values in
    Hashtbl.replace values i
      (match kind with
      | 0 -> Trace.Format.Raw a
      | 1 -> Trace.Format.Obj (a, b)
      | _ -> Trace.Format.Reg a);
    i
  in
  let value i = Hashtbl.find values i in
  let push r = out := r :: !out in
  let stop =
    match f ~push ~resolve ~value with
    | () -> None
    | exception Trace.Format.Corrupt msg -> Some msg
  in
  (List.rev !out, stop)

let rec until_end next ~push =
  match next () with
  | Trace.Format.End -> ()
  | rc ->
      push rc;
      until_end next ~push

let next_stream r =
  decode_with (fun ~push ~resolve:_ ~value:_ ->
      until_end (fun () -> Trace.Format.next r) ~push)

let next_fused_stream r =
  decode_with (fun ~push ~resolve ~value ->
      let poke ~addr ~v = push (Trace.Format.Poke { addr; v }) in
      let store ~addr ~v =
        push (Trace.Format.Store_ptr { addr = value addr; v = value v })
      in
      until_end (fun () -> Trace.Format.next_fused r ~poke ~resolve ~store) ~push)

let dispatch_stream r =
  decode_with (fun ~push ~resolve ~value ->
      let open Trace.Format in
      let h =
        {
          malloc = (fun ~size -> push (Malloc { size }));
          free = (fun ~id -> push (Free { id }));
          newregion = (fun () -> push Newregion);
          ralloc = (fun ~rid layout -> push (Ralloc { rid; layout }));
          rstralloc = (fun ~rid ~size -> push (Rstralloc { rid; size }));
          rarrayalloc =
            (fun ~rid ~n layout -> push (Rarrayalloc { rid; n; layout }));
          deleteregion =
            (fun ~rid ~frame ~slot ~ok ->
              push (Deleteregion { rid; frame; slot; ok }));
          poke = (fun ~addr ~v -> push (Poke { addr; v }));
          clear = (fun ~addr ~bytes -> push (Clear { addr; bytes }));
          resolve;
          store_ptr =
            (fun ~addr ~v -> push (Store_ptr { addr = value addr; v = value v }));
          set_local =
            (fun ~frame ~slot ~v -> push (Set_local { frame; slot; v = value v }));
          set_local_ptr =
            (fun ~frame ~slot ~v ->
              push (Set_local_ptr { frame; slot; v = value v }));
          set_mutator = (fun ~mid ~bump -> push (Set_mutator { mid; bump }));
        }
      in
      until_end (fun () -> dispatch r h) ~push)

let open_chunked ~chunk path =
  match Trace.Format.open_file ~chunk path with
  | Ok r -> r
  | Error e -> QCheck.Test.fail_reportf "open failed: %s" e

let open_whole path =
  match Trace.Format.open_in_memory path with
  | Ok r -> r
  | Error e -> QCheck.Test.fail_reportf "open failed: %s" e

(* Decoded through a 1-byte window, every record takes the checked
   path: the reference the fast path is held to. *)
let reference_stream path =
  let r = open_chunked ~chunk:1 path in
  Fun.protect ~finally:(fun () -> Trace.Format.close r) (fun () -> next_stream r)

(* [next], [next_fused] and [dispatch] over a [chunk]-byte window and
   over the whole file in memory each deliver exactly the reference
   stream, ending the same way.  Windows of at least 35 bytes run the
   fast path wherever a record fits, and the checked one at each
   window end. *)
let same_as_reference ~what ~chunk path =
  let expected = reference_stream path in
  let show (records, stop) =
    Printf.sprintf "%d records, %s" (List.length records)
      (match stop with None -> "end" | Some m -> "Corrupt " ^ m)
  in
  List.iter
    (fun (name, open_, stream) ->
      let r = open_ path in
      let got = Fun.protect ~finally:(fun () -> Trace.Format.close r) (fun () -> stream r) in
      if got <> expected then
        QCheck.Test.fail_reportf "%s: %s differs from the checked path (chunk %d): %s vs %s"
          what name chunk (show got) (show expected))
    [
      ("next", open_chunked ~chunk, next_stream);
      ("next_fused", open_chunked ~chunk, next_fused_stream);
      ("dispatch", open_chunked ~chunk, dispatch_stream);
      ("in-memory next", open_whole, next_stream);
      ("in-memory next_fused", open_whole, next_fused_stream);
      ("in-memory dispatch", open_whole, dispatch_stream);
    ];
  expected

let write_records path records =
  let w = Trace.Format.create_writer ~path hdr in
  List.iter (Trace.Format.emit w) records;
  Trace.Format.commit w ~summary:"prop"

(* The longest records the fast path reads — a pointer store of two
   [Obj] values whose four varints are 8 bytes long is 35 bytes, the
   room it asks the window for — back to back, so that over the window
   sizes some start at every offset from a window end: a fast path
   that read a byte past the window, or a room one byte short, decodes
   a stale byte on them. *)
let widest_records len =
  let open Trace.Format in
  let big i = (1 lsl 55) + (i * 7919) in
  List.init len (fun i ->
      match i mod 3 with
      | 0 -> Store_ptr { addr = Obj (big i, big (i + 1)); v = Obj (big (i + 2), big (i + 3)) }
      | 1 -> Set_local { frame = big i; slot = big (i + 1); v = Obj (big (i + 2), big (i + 3)) }
      | _ -> Deleteregion { rid = big i; frame = big (i + 1); slot = big (i + 2); ok = i land 4 = 0 })

(* Arbitrary record streams, with fields of every varint length, and
   streams of the widest records. *)
let prop_dispatch_matches_next =
  QCheck.Test.make ~count:60
    ~name:"dispatch and next_fused deliver exactly what next yields"
    QCheck.(triple (0 -- 10_000) (0 -- 300) (1 -- 300))
    (fun (seed, len, chunk) ->
      let records =
        match seed mod 4 with
        | 0 -> random_records seed len
        | 1 -> widest_records len
        | _ -> random_records ~wide:true seed len
      in
      let path = tmp_path () in
      write_records path records;
      let expected = same_as_reference ~what:"random records" ~chunk path in
      Sys.remove path;
      if expected <> (records, None) then
        QCheck.Test.fail_reportf "decoded stream <> written records (seed=%d)" seed;
      true)

(* A varint of [len] bytes (continuation bits on all but the last; 10
   or more is oversized) with random payload bits. *)
let raw_varint rnd len =
  String.init len (fun i ->
      let bits = rnd 128 in
      Char.chr (if i < len - 1 then bits lor 0x80 else bits))

(* A body of records with arbitrary, often malformed, fields after a
   valid envelope: tags (mostly known ones, some unknown), varints of 1
   to 11 bytes, value kinds and counts out of range, bytes cut off at
   the end.  Whatever the checked path decides — each record, or the
   [Corrupt] that stops it — every decoder must decide the same. *)
let prop_arbitrary_bodies =
  let envelope =
    lazy
      (let path = tmp_path () in
       write_records path [];
       let data = read_file path in
       Sys.remove path;
       let end_off = Int64.to_int (String.get_int64_le data (String.length data - 12)) in
       (String.sub data 0 end_off, String.sub data end_off (String.length data - 12 - end_off)))
  in
  QCheck.Test.make ~count:200
    ~name:"arbitrary bodies: every decoder agrees with the checked path"
    QCheck.(triple (0 -- 1_000_000) (1 -- 60) (1 -- 120))
    (fun (seed, nrec, chunk) ->
      let rnd = Random.State.int (Random.State.make [| seed |]) in
      let tags = [| 1; 2; 4; 5; 6; 7; 8; 9; 10; 11; 13; 14; 16; 17; 18; 19; 20; 21; 22; 23 |] in
      let field () =
        match rnd 8 with
        | 0 | 1 -> raw_varint rnd (8 + rnd 4)
        | 2 -> raw_varint rnd (3 + rnd 5)
        | 3 -> String.make 1 (Char.chr (rnd 4))
        | _ -> raw_varint rnd (1 + rnd 2)
      in
      let record () =
        let tag = if rnd 10 = 0 then rnd 256 else tags.(rnd (Array.length tags)) in
        String.make 1 (Char.chr tag) ^ String.concat "" (List.init (rnd 8) (fun _ -> field ()))
      in
      let body = String.concat "" (List.init nrec (fun _ -> record ())) in
      let body = String.sub body 0 (String.length body - rnd (1 + min 3 (String.length body))) in
      let head, trailer = Lazy.force envelope in
      let back = Bytes.create 8 in
      Bytes.set_int64_le back 0 (Int64.of_int (String.length head + String.length body));
      let path = tmp_path () in
      write_file path (head ^ body ^ trailer ^ Bytes.to_string back ^ "RGEN");
      ignore (same_as_reference ~what:(Printf.sprintf "seed %d" seed) ~chunk path);
      Sys.remove path;
      true)

let prop_streaming_equals_in_memory =
  QCheck.Test.make ~count:40
    ~name:"streaming reader == in-memory reader (any records, any chunk)"
    QCheck.(triple (0 -- 10_000) (0 -- 300) (1 -- 64))
    (fun (seed, len, chunk) ->
      let records = random_records seed len in
      let path = tmp_path () in
      let w = Trace.Format.create_writer ~path hdr in
      List.iter (Trace.Format.emit w) records;
      Trace.Format.commit w ~summary:"prop";
      let streamed =
        match Trace.Format.open_file ~chunk path with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_reportf "streaming open failed: %s" e
      in
      let in_mem =
        match Trace.Format.open_in_memory path with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_reportf "in-memory open failed: %s" e
      in
      Sys.remove path;
      let finish () = Trace.Format.close streamed in
      if Trace.Format.header streamed <> Trace.Format.header in_mem then
        QCheck.Test.fail_reportf "headers differ (seed=%d)" seed;
      if Trace.Format.records streamed <> Trace.Format.records in_mem then
        QCheck.Test.fail_reportf "record counts differ (seed=%d)" seed;
      if Trace.Format.summary streamed <> Trace.Format.summary in_mem then
        QCheck.Test.fail_reportf "summaries differ (seed=%d)" seed;
      let a = drain streamed and b = drain in_mem in
      if a <> b then
        QCheck.Test.fail_reportf "record streams differ (seed=%d chunk=%d)"
          seed chunk;
      if b <> records then
        QCheck.Test.fail_reportf "decoded stream <> written records (seed=%d)"
          seed;
      Trace.Format.reset streamed;
      Trace.Format.reset in_mem;
      if fused_stream streamed <> fused_stream in_mem then
        QCheck.Test.fail_reportf "fused streams differ (seed=%d chunk=%d)" seed
          chunk;
      Trace.Format.reset streamed;
      Trace.Format.reset in_mem;
      if dispatch_stream streamed <> (records, None)
         || dispatch_stream in_mem <> (records, None)
      then
        QCheck.Test.fail_reportf "dispatch streams differ (seed=%d chunk=%d)"
          seed chunk;
      finish ();
      true)

(* Single-bit corruption anywhere in the file: the streaming reader
   must answer with an open error, a [Corrupt] while reading, or a
   clean bounded stream — never a hang or an unbounded allocation (a
   flipped element count is checked against the remaining body before
   any buffer is sized, format.ml's [count]). *)
let prop_bitflip_bounded =
  let base =
    lazy
      (let path = tmp_path () in
       let w = Trace.Format.create_writer ~path hdr in
       List.iter (Trace.Format.emit w) (random_records 7 200);
       Trace.Format.commit w ~summary:"bitflip base";
       let data = read_file path in
       Sys.remove path;
       data)
  in
  QCheck.Test.make ~count:150
    ~name:"streaming reader: single bit-flips error out, never hang"
    QCheck.(pair (0 -- 1_000_000) (1 -- 97))
    (fun (flip, chunk) ->
      let good = Lazy.force base in
      let b = Bytes.of_string good in
      let bit = flip mod (8 * Bytes.length b) in
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
      let path = tmp_path () in
      write_file path (Bytes.to_string b);
      let verdict =
        match Trace.Format.open_file ~chunk path with
        | Error _ -> true (* rejected at open *)
        | Ok r ->
            let bound = (8 * Bytes.length b) + 16 in
            let rec go n =
              if n > bound then false (* more records than body bytes: loop *)
              else
                match Trace.Format.next r with
                | Trace.Format.End -> true
                | _ -> go (n + 1)
            in
            let ok = try go 0 with Trace.Format.Corrupt _ -> true in
            Trace.Format.close r;
            (* Bounded, and the same records and the same [Corrupt]
               through every decoder. *)
            ok
            && (ignore (same_as_reference ~what:"bit-flipped trace" ~chunk path);
                true)
      in
      Sys.remove path;
      verdict)

(* ------------------------------------------------------------------ *)
(* The synthetic generator (Trace.Gen): same spec, same bytes — on
   every host and build — plus distribution sanity on what it wrote,
   and replayability of its output on every column family. *)

let gen_params spec =
  match Trace.Gen.of_string spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad gen spec %S: %s" spec e

let test_gen_deterministic () =
  let p = gen_params "n=20000,size=heavy:16:65536,life=exp:400,stores=2,seed=9" in
  let a = tmp_path () and b = tmp_path () in
  Trace.Gen.generate ~out:a p;
  Trace.Gen.generate ~out:b p;
  check_str "same spec, byte-identical traces" (read_file a) (read_file b);
  let p' = { p with Trace.Gen.seed = 10 } in
  Trace.Gen.generate ~out:b p';
  check_bool "different seed, different bytes" false (read_file a = read_file b);
  Sys.remove a;
  Sys.remove b

(* Distribution sanity: every size respects the spec's bounds and the
   uniform mean lands near the middle; exponential lifetimes actually
   interleave deaths with allocations rather than batching them all at
   the end. *)
let test_gen_histogram () =
  let n = 20_000 in
  let p = gen_params (Printf.sprintf "n=%d,size=uniform:16:64,life=exp:300" n) in
  let path = tmp_path () in
  Trace.Gen.generate ~out:path p;
  (match Trace.Format.open_file path with
  | Error e -> Alcotest.failf "open failed: %s" e
  | Ok r ->
      check_int "trailer object count" n (Trace.Format.objects r);
      check_bool "recycled-ids flag set" true (Trace.Format.recycled r);
      check_bool "id table bounded by live set, not trace length" true
        (Trace.Format.obj_slots r < n / 4);
      let sizes = ref [] and mallocs = ref 0 and frees_before_last = ref 0 in
      let rec go () =
        match Trace.Format.next r with
        | Trace.Format.End -> ()
        | Trace.Format.Malloc { size } ->
            incr mallocs;
            sizes := size :: !sizes;
            go ()
        | Trace.Format.Free _ ->
            if !mallocs < n then incr frees_before_last;
            go ()
        | _ -> go ()
      in
      go ();
      Trace.Format.close r;
      check_int "one malloc per object" n !mallocs;
      List.iter
        (fun s ->
          if s < 16 || s > 64 then
            Alcotest.failf "size %d outside uniform:16:64" s)
        !sizes;
      let mean =
        float_of_int (List.fold_left ( + ) 0 !sizes) /. float_of_int n
      in
      check_bool "uniform mean near 40" true (mean > 36. && mean < 44.);
      check_bool "exponential deaths interleave with allocation" true
        (!frees_before_last > n / 2));
  Sys.remove path

(* The traces the tree writes, recorded and generated, at window sizes
   from 1 byte up; and the widest records with a window end at every
   offset into them. *)
let test_dispatch_on_real_traces () =
  let path_of write =
    let path = tmp_path () in
    write path;
    path
  in
  let some_chunks = [ 1; 7; 34; 35; 36; 64; 1000; 65536 ] in
  let traces =
    List.map
      (fun (workload, variant) ->
        ( path_of (fun out ->
              ignore
                (Trace.Record.record ~out ~variant
                   (Workloads.Workload.find workload)
                   Workloads.Workload.Quick
                  : Workloads.Results.t)),
          some_chunks ))
      [ ("cfrac", "malloc"); ("tile", "region") ]
    @ List.map
        (fun spec -> (path_of (fun out -> Trace.Gen.generate ~out (gen_params spec)), some_chunks))
        [ "n=3000,size=heavy:16:65536,life=exp:400,stores=2";
          "n=3000,variant=region,life=long:5:200,stores=2" ]
    @ [ (path_of (fun path -> write_records path (widest_records 150)), List.init 81 (( + ) 30)) ]
  in
  List.iter
    (fun (path, chunks) ->
      List.iter
        (fun chunk ->
          match same_as_reference ~what:path ~chunk path with
          | _, None -> ()
          | _, Some msg -> Alcotest.failf "%s: Corrupt %s" path msg)
        chunks;
      Sys.remove path)
    traces

(* The replay's hot path builds nothing per record.  On a 20k-object
   generated malloc trace (60k records), sun, bsd and lea allocate at
   most 0.05 minor words per record, the set-up's (0.01 measured; 1.34
   when every record was built: a [Malloc] or [Free] record's two
   words on two records of three).  The collector column allocates
   0.28 words per record (bound 0.35), in its collections: its
   large-block store takes a block without building anything (2.46
   when each take rebuilt a map path).  On the region trace the safe
   column allocates 0.97 words per record and the unsafe one 0.77
   (bounds 1.1 and 0.9), in per-region and per-page bookkeeping: no
   allocation or barrier passes [Sim.Cost.within] an argument tuple
   (that read 3.94 and 2.26).  A deterministic count, unlike host time, so a record
   or a tuple creeping back onto the path fails here. *)
let test_replay_allocation_witness () =
  let words_per_record spec mode =
    let path = tmp_path () in
    Trace.Gen.generate ~out:path (gen_params spec);
    let r =
      match Trace.Format.open_file path with
      | Ok r -> r
      | Error e -> Alcotest.failf "open failed: %s" e
    in
    let before = Gc.minor_words () in
    let (_ : Workloads.Results.t) = Trace.Replay.run r mode in
    let words = Gc.minor_words () -. before in
    let records = Trace.Format.records r in
    Trace.Format.close r;
    Sys.remove path;
    words /. float_of_int records
  in
  let within mode spec bound =
    let w = words_per_record spec mode in
    if w > bound then
      Alcotest.failf "%s replay allocates %.3f minor words per record (> %.2f)"
        (Workloads.Api.mode_name mode) w bound
  in
  List.iter
    (fun b -> within (Workloads.Api.Direct b) "n=20000" 0.05)
    Workloads.Api.[ Sun; Bsd; Lea ];
  within (Workloads.Api.Direct Workloads.Api.Gc) "n=20000" 0.35;
  within (Workloads.Api.Region { safe = true }) "n=20000,variant=region" 1.1;
  within (Workloads.Api.Region { safe = false }) "n=20000,variant=region" 0.9

(* Timeline profiling during replay: deterministic (same trace, same
   column => byte-identical CSV), bounded (at most [capacity] samples
   however long the trace), and pure observation — the replayed
   simulated counts are byte-identical with and without a timeline. *)
let test_timeline_replay_deterministic () =
  let p = gen_params "n=30000,variant=malloc,size=table2,life=lifo:256" in
  let path = tmp_path () in
  Trace.Gen.generate ~out:path p;
  let replay ?timeline mode =
    match Trace.Format.open_file path with
    | Error e -> Alcotest.failf "open failed: %s" e
    | Ok r ->
        Fun.protect
          ~finally:(fun () -> Trace.Format.close r)
          (fun () -> Trace.Replay.run ?timeline r mode)
  in
  List.iter
    (fun mode ->
      let capacity = 64 in
      let run () =
        let tl = Obs.Timeline.create ~capacity () in
        let r = replay ~timeline:tl mode in
        (Obs.Timeline.to_csv tl, Format.asprintf "%a" Workloads.Results.pp r)
      in
      let csv1, with_tl = run () in
      let csv2, _ = run () in
      check_str "same trace and column, same CSV" csv1 csv2;
      check_bool "bounded samples" true
        (List.length (String.split_on_char '\n' (String.trim csv1)) - 1
        <= capacity);
      let bare = Format.asprintf "%a" Workloads.Results.pp (replay mode) in
      check_str "profiling is pure observation" bare with_tl)
    [
      Workloads.Api.Direct Workloads.Api.Lea;
      Workloads.Api.Direct Workloads.Api.Gc;
    ];
  Sys.remove path

(* Fragmentation accounting inside the sampled rows: live <= held under
   the malloc columns (usable size can only round up) and the external
   component is exactly os - held. *)
let test_timeline_frag_invariants () =
  let p = gen_params "n=30000,variant=malloc,size=table2,life=lifo:256" in
  let path = tmp_path () in
  Trace.Gen.generate ~out:path p;
  (match Trace.Format.open_file path with
  | Error e -> Alcotest.failf "open failed: %s" e
  | Ok r ->
      let tl = Obs.Timeline.create ~capacity:64 () in
      let (_ : Workloads.Results.t) =
        Fun.protect
          ~finally:(fun () -> Trace.Format.close r)
          (fun () ->
            Trace.Replay.run ~timeline:tl r
              (Workloads.Api.Direct Workloads.Api.Lea))
      in
      check_bool "sampled something" true (Obs.Timeline.length tl > 0);
      Obs.Timeline.iter tl
        (fun ~events:_ ~live_allocs ~live_bytes ~held_bytes ~os_bytes ->
          check_bool "live allocs non-negative" true (live_allocs >= 0);
          check_bool "held covers live" true (held_bytes >= live_bytes);
          check_bool "os covers held" true (os_bytes >= held_bytes)));
  Sys.remove path

let test_gen_replays_on_columns () =
  let run spec modes =
    let p = gen_params spec in
    let path = tmp_path () in
    Trace.Gen.generate ~out:path p;
    List.iter
      (fun mode ->
        match Trace.Format.open_file path with
        | Error e -> Alcotest.failf "open failed: %s" e
        | Ok r ->
            let res = Trace.Replay.run r mode in
            Trace.Format.close r;
            check_int
              (Printf.sprintf "%s: every allocation replayed" spec)
              p.Trace.Gen.objects res.Workloads.Results.req_allocs)
      modes;
    Sys.remove path
  in
  run "n=20000,variant=malloc,size=table2,life=lifo:64,stores=1"
    [
      Workloads.Api.Direct Workloads.Api.Sun;
      Workloads.Api.Direct Workloads.Api.Bsd;
      Workloads.Api.Direct Workloads.Api.Lea;
      Workloads.Api.Direct Workloads.Api.Gc;
    ];
  run "n=20000,variant=region,size=table2,life=long:5:200,stores=1"
    [
      Workloads.Api.Region { safe = true };
      Workloads.Api.Region { safe = false };
    ]

(* ------------------------------------------------------------------ *)
(* The record vocabulary is the traffic: every [Trace.Format.record]
   constructor occurs in the traces the tree itself writes.  The
   smallest fixed set of quick recordings that covers them all: cfrac
   (malloc: [Set_local], [Poke_block] and a collection's [Gc_roots]),
   tile (malloc: [Clear]; region: [Rarrayalloc], [Poke_bytes]) and
   server-2 (region: [Set_mutator]), plus one small generated trace.
   The match in [kind] is exhaustive, so a new record kind cannot be
   added without traffic that writes it. *)

let kinds =
  [| "Malloc"; "Free"; "Newregion"; "Ralloc"; "Rstralloc"; "Rarrayalloc";
     "Deleteregion"; "Frame_push"; "Frame_pop"; "Poke"; "Poke_bytes";
     "Poke_block"; "Clear"; "Store_ptr"; "Set_local"; "Set_local_ptr";
     "Gc_roots"; "Mark"; "Set_mutator"; "End" |]

let kind : Trace.Format.record -> int = function
  | Malloc _ -> 0
  | Free _ -> 1
  | Newregion -> 2
  | Ralloc _ -> 3
  | Rstralloc _ -> 4
  | Rarrayalloc _ -> 5
  | Deleteregion _ -> 6
  | Frame_push _ -> 7
  | Frame_pop -> 8
  | Poke _ -> 9
  | Poke_bytes _ -> 10
  | Poke_block _ -> 11
  | Clear _ -> 12
  | Store_ptr _ -> 13
  | Set_local _ -> 14
  | Set_local_ptr _ -> 15
  | Gc_roots _ -> 16
  | Mark _ -> 17
  | Set_mutator _ -> 18
  | End -> 19

let test_vocabulary_is_traffic () =
  let seen = Array.make (Array.length kinds) 0 in
  let count path =
    match Trace.Format.open_file path with
    | Error e -> Alcotest.failf "open failed: %s" e
    | Ok r ->
        let rec go () =
          let rc = Trace.Format.next r in
          let k = kind rc in
          seen.(k) <- seen.(k) + 1;
          if rc <> Trace.Format.End then go ()
        in
        go ();
        Trace.Format.close r;
        Sys.remove path
  in
  List.iter
    (fun (workload, variant) ->
      let path = tmp_path () in
      let (_ : Workloads.Results.t) =
        Trace.Record.record ~out:path ~variant
          (Workloads.Workload.find workload)
          Workloads.Workload.Quick
      in
      count path)
    [ ("cfrac", "malloc"); ("tile", "malloc"); ("tile", "region");
      ("server-2", "region") ];
  let path = tmp_path () in
  Trace.Gen.generate ~out:path (gen_params "n=2000,variant=region");
  count path;
  Array.iteri
    (fun k name -> check_bool (name ^ " occurs") true (seen.(k) > 0))
    kinds

(* ------------------------------------------------------------------ *)
(* Record -> replay count-equivalence.

   One malloc-family row (cfrac) and one region-only row (mudlle,
   whose traces are recorded under the emulated allocators) are
   verified here with the same cross-check [repro replay --verify]
   runs over the whole matrix: recording cells must match a plain run
   on every field, replayed cells on every allocator-side field. *)

let test_replay_equivalence workload () =
  let cells, diffs =
    Harness.Replaycheck.verify ~workload ~domains:2 Workloads.Workload.Quick
  in
  check_int "all report cells checked" 6 cells;
  match diffs with
  | [] -> ()
  | d :: _ ->
      Alcotest.failf "%d divergence(s); first: %a" (List.length diffs)
        Harness.Replaycheck.pp_diff d

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "trace"
    [
      ( "format",
        [
          quick "write/read round-trip" test_roundtrip;
          quick "specialized emitters are byte-equivalent"
            test_specialized_emitters_byte_equal;
          quick "fused store decoding" test_next_fused;
          quick "truncated and torn traces rejected" test_damage_rejected;
          QCheck_alcotest.to_alcotest prop_streaming_equals_in_memory;
          QCheck_alcotest.to_alcotest prop_bitflip_bounded;
          QCheck_alcotest.to_alcotest prop_dispatch_matches_next;
          QCheck_alcotest.to_alcotest prop_arbitrary_bodies;
          quick "dispatch on recorded, generated and widest traces"
            test_dispatch_on_real_traces;
        ] );
      ( "gen",
        [
          quick "same spec, byte-identical output" test_gen_deterministic;
          quick "distribution sanity" test_gen_histogram;
          quick "generated traces replay on every column family"
            test_gen_replays_on_columns;
          quick "replay builds nothing per record"
            test_replay_allocation_witness;
        ] );
      ( "timeline",
        [
          quick "deterministic, bounded, pure observation"
            test_timeline_replay_deterministic;
          quick "fragmentation accounting invariants"
            test_timeline_frag_invariants;
        ] );
      ( "traffic",
        [ quick "every record kind is written" test_vocabulary_is_traffic ] );
      ( "replay",
        [
          quick "cfrac row count-equivalent" (test_replay_equivalence "cfrac");
          quick "mudlle row count-equivalent" (test_replay_equivalence "mudlle");
        ] );
      ( "cli",
        [
          quick "replay rejects bad traces with exit 2"
            test_replay_cli_bad_trace;
          quick "retired record tags rejected" test_retired_tags_rejected;
        ] );
    ]
