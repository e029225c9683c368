(* Tests for the region library: allocation, page management, cleanup
   functions, reference counting, stack scan/unscan, and emulation. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type env = {
  mem : Sim.Memory.t;
  mut : Regions.Mutator.t;
  lib : Regions.Region.t;
}

let fresh ?(safe = true) ?(offset_regions = true) ?(eager_locals = false) () =
  let mem = Sim.Memory.create ~with_cache:false () in
  let mut = Regions.Mutator.create mem in
  let cleanups = Regions.Cleanup.create () in
  let lib =
    Regions.Region.create ~safe ~offset_regions ~eager_locals cleanups mut
  in
  { mem; mut; lib }

(* A list-node layout, as in Figure 3 of the paper: int i; list @next *)
let node_layout = Regions.Cleanup.layout ~size_bytes:8 ~ptr_offsets:[ 4 ]
let plain2 = Regions.Cleanup.layout_words 2

(* ------------------------------------------------------------------ *)
(* Mutator *)

let test_mutator_frames () =
  let e = fresh () in
  let fr = Regions.Mutator.push_frame e.mut ~nslots:3 ~ptr_slots:[ 1 ] in
  check "depth" 1 (Regions.Mutator.depth e.mut);
  Regions.Mutator.set_local e.mut fr 0 42;
  check "local roundtrip" 42 (Regions.Mutator.get_local fr 0);
  check_bool "ptr slot" true (Regions.Mutator.is_ptr_slot fr 1);
  check_bool "non-ptr slot" false (Regions.Mutator.is_ptr_slot fr 0);
  Regions.Mutator.pop_frame e.mut;
  check "depth after pop" 0 (Regions.Mutator.depth e.mut)

let test_mutator_with_frame_exception () =
  let e = fresh () in
  (try
     Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun _ ->
         failwith "boom")
   with Failure _ -> ());
  check "popped on exception" 0 (Regions.Mutator.depth e.mut)

let test_mutator_deep_stack () =
  let e = fresh () in
  (* Push past the initial frame-array capacity. *)
  for _ = 1 to 200 do
    ignore (Regions.Mutator.push_frame e.mut ~nslots:2 ~ptr_slots:[ 0 ])
  done;
  check "depth" 200 (Regions.Mutator.depth e.mut);
  for _ = 1 to 200 do
    Regions.Mutator.pop_frame e.mut
  done;
  check "unwound" 0 (Regions.Mutator.depth e.mut)

let test_mutator_globals () =
  let e = fresh () in
  let a0 = Regions.Mutator.global_addr e.mut 0 in
  let a9 = Regions.Mutator.global_addr e.mut 9 in
  check "globals spacing" 36 (a9 - a0);
  check_bool "is_global" true (Regions.Mutator.is_global e.mut a9);
  check_bool "heap not global" false (Regions.Mutator.is_global e.mut (a9 + 8192));
  Sim.Memory.store e.mem a0 7;
  let seen = ref false in
  Regions.Mutator.iter_roots e.mut (fun v -> if v = 7 then seen := true);
  check_bool "roots include globals" true !seen

let test_mutator_unscan_hook () =
  let e = fresh () in
  let unscanned = ref [] in
  Regions.Mutator.set_unscan_hook e.mut (fun fr ->
      unscanned := Regions.Mutator.get_local fr 0 :: !unscanned);
  let f1 = Regions.Mutator.push_frame e.mut ~nslots:1 ~ptr_slots:[ 0 ] in
  Regions.Mutator.set_local e.mut f1 0 111;
  let f2 = Regions.Mutator.push_frame e.mut ~nslots:1 ~ptr_slots:[ 0 ] in
  Regions.Mutator.set_local e.mut f2 0 222;
  ignore (Regions.Mutator.push_frame e.mut ~nslots:1 ~ptr_slots:[]);
  (* Scan everything but the current frame, as deleteregion would. *)
  Regions.Mutator.set_hwm e.mut 2;
  Regions.Mutator.pop_frame e.mut;
  (* Returned into f2, which was scanned: hook fires, hwm drops. *)
  check "hook saw f2" 222 (List.hd !unscanned);
  check "hwm lowered" 1 (Regions.Mutator.hwm e.mut);
  Regions.Mutator.pop_frame e.mut;
  check "hook saw f1" 111 (List.hd !unscanned);
  check "hwm lowered again" 0 (Regions.Mutator.hwm e.mut)

(* ------------------------------------------------------------------ *)
(* Cleanup registry *)

let test_cleanup_registry () =
  let t = Regions.Cleanup.create () in
  let id1 = Regions.Cleanup.register_object t node_layout in
  let id2 = Regions.Cleanup.register_object t node_layout in
  check "hash-consed" id1 id2;
  let id3 = Regions.Cleanup.register_array t node_layout in
  check_bool "array id distinct" true (id3 <> id1);
  check_bool "zero reserved" true (id1 <> 0 && id3 <> 0);
  (match Regions.Cleanup.find t id1 with
  | Regions.Cleanup.Object l -> check "layout size" 8 l.Regions.Cleanup.size_bytes
  | _ -> Alcotest.fail "expected Object");
  match Regions.Cleanup.find t 9999 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* The registry's contract, which object headers depend on: ids are
   dense from 1 in first-registration order, shared by structurally
   equal layouts, never shared between an object and an array cleanup,
   and [find] rejects every id it did not hand out. *)
let test_cleanup_registry_contract () =
  let t = Regions.Cleanup.create () in
  let a = Regions.Cleanup.layout ~size_bytes:12 ~ptr_offsets:[ 8; 0 ] in
  let a' = Regions.Cleanup.layout ~size_bytes:12 ~ptr_offsets:[ 0; 8 ] in
  check_bool "physically distinct" true (a != a');
  let b = Regions.Cleanup.layout ~size_bytes:12 ~ptr_offsets:[ 4 ] in
  check "first id" 1 (Regions.Cleanup.register_object t a);
  check "structurally equal layout" 1 (Regions.Cleanup.register_object t a');
  check "array of the same layout" 2 (Regions.Cleanup.register_array t a');
  check "array again" 2 (Regions.Cleanup.register_array t a);
  check "same size, other offsets" 3 (Regions.Cleanup.register_object t b);
  let custom =
    Regions.Cleanup.register_custom t ~size_bytes:20 (fun _ _ -> ())
  in
  check "custom id" 4 custom;
  check "big layout" 5
    (Regions.Cleanup.register_object t (Regions.Cleanup.layout_words 5000));
  check "big layout again" 5
    (Regions.Cleanup.register_object t (Regions.Cleanup.layout_words 5000));
  check "big array" 6
    (Regions.Cleanup.register_array t (Regions.Cleanup.layout_words 6000));
  (match Regions.Cleanup.find t 2 with
  | Regions.Cleanup.Array l ->
      check "array element size" 12 l.Regions.Cleanup.size_bytes
  | _ -> Alcotest.fail "expected Array");
  (match Regions.Cleanup.find t 3 with
  | Regions.Cleanup.Object l ->
      check_bool "offsets kept" true (l.Regions.Cleanup.ptr_offsets = [ 4 ])
  | _ -> Alcotest.fail "expected Object");
  (match Regions.Cleanup.find t custom with
  | Regions.Cleanup.Custom { size_bytes; _ } -> check "custom size" 20 size_bytes
  | _ -> Alcotest.fail "expected Custom");
  List.iter
    (fun id ->
      match Regions.Cleanup.find t id with
      | _ -> Alcotest.failf "find %d: expected Invalid_argument" id
      | exception Invalid_argument _ -> ())
    [ 0; -1; 7 ]

let test_cleanup_layout_validation () =
  let bad f = match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  bad (fun () -> Regions.Cleanup.layout ~size_bytes:8 ~ptr_offsets:[ 6 ]);
  bad (fun () -> Regions.Cleanup.layout ~size_bytes:8 ~ptr_offsets:[ 8 ]);
  bad (fun () -> Regions.Cleanup.layout ~size_bytes:0 ~ptr_offsets:[])

(* ------------------------------------------------------------------ *)
(* Basic region allocation (runs for both safe and unsafe) *)

let in_frame e f =
  Regions.Mutator.with_frame e.mut ~nslots:8 ~ptr_slots:[ 0; 1; 2; 3 ] f

let test_alloc_basics ~safe () =
  let e = fresh ~safe () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let p = Regions.Region.ralloc e.lib r node_layout in
      check_bool "aligned" true (p land 3 = 0);
      check "ralloc clears" 0 (Sim.Memory.load e.mem p);
      check "ralloc clears next word" 0 (Sim.Memory.load e.mem (p + 4));
      check "regionof object" r (Regions.Region.regionof e.lib p);
      check "regionof region struct" r (Regions.Region.regionof e.lib r);
      check "regionof elsewhere" 0
        (Regions.Region.regionof e.lib (Regions.Mutator.global_addr e.mut 0));
      let q = Regions.Region.ralloc e.lib r node_layout in
      check_bool "no overlap" true (q >= p + 8 || q + 8 <= p);
      check_bool "delete" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check "handle nulled" 0 (Regions.Mutator.get_local fr 0))

let test_alloc_many_pages ~safe () =
  let e = fresh ~safe () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      (* 1000 x 100-byte objects: ~104 bytes each, ~39 per page -> ~26 pages *)
      let layout = Regions.Cleanup.layout_words 25 in
      let addrs = Array.init 1000 (fun _ -> Regions.Region.ralloc e.lib r layout) in
      Array.iter
        (fun a -> check "page map covers all" r (Regions.Region.regionof e.lib a))
        addrs;
      (* Every object writable without corrupting its neighbour. *)
      Array.iteri (fun i a -> Sim.Memory.store e.mem a i) addrs;
      Array.iteri (fun i a -> check "distinct storage" i (Sim.Memory.load e.mem a)) addrs;
      check_bool "many pages mapped" true (Regions.Region.live_pages e.lib > 20);
      check_bool "delete" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check "all pages pooled" 0 (Regions.Region.live_pages e.lib))

let test_page_pool_reuse () =
  let e = fresh ~safe:false () in
  in_frame e (fun fr ->
      let r1 = Regions.Region.newregion e.lib in
      Regions.Mutator.set_local e.mut fr 0 r1;
      for _ = 1 to 200 do
        ignore (Regions.Region.ralloc e.lib r1 (Regions.Cleanup.layout_words 64))
      done;
      let os = Regions.Region.os_bytes e.lib in
      ignore (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      (* A second identical region must reuse pooled pages: no OS growth. *)
      let r2 = Regions.Region.newregion e.lib in
      Regions.Mutator.set_local e.mut fr 0 r2;
      for _ = 1 to 200 do
        ignore (Regions.Region.ralloc e.lib r2 (Regions.Cleanup.layout_words 64))
      done;
      check "os bytes unchanged" os (Regions.Region.os_bytes e.lib))

let test_region_offsetting () =
  let e = fresh () in
  (* With offsetting, consecutive region structures land at different
     64-byte-line offsets within their pages (cycling mod 8). *)
  let offs =
    List.init 8 (fun _ ->
        let r = Regions.Region.newregion e.lib in
        r land 4095)
  in
  let distinct = List.sort_uniq compare offs in
  check "eight distinct offsets" 8 (List.length distinct);
  let e2 = fresh ~offset_regions:false () in
  let offs2 =
    List.init 8 (fun _ ->
        let r = Regions.Region.newregion e2.lib in
        r land 4095)
  in
  check "no offsetting: one offset" 1 (List.length (List.sort_uniq compare offs2))

let test_rstralloc_not_cleared_and_separate () =
  let e = fresh ~safe:false () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Mutator.set_local e.mut fr 0 r;
      let s = Regions.Region.rstralloc e.lib r 64 in
      (* Dirty it, delete, re-create: a pooled page must come back dirty,
         proving rstralloc does not clear (ralloc does). *)
      for i = 0 to 15 do
        Sim.Memory.store e.mem (s + (i * 4)) 0xABCD
      done;
      ignore (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      let r2 = Regions.Region.newregion e.lib in
      Regions.Mutator.set_local e.mut fr 0 r2;
      let s2 = Regions.Region.rstralloc e.lib r2 64 in
      check_bool "pooled string page is dirty" true
        (Sim.Memory.peek e.mem s2 = 0xABCD
        || Sim.Memory.peek e.mem (s2 + 4) = 0xABCD);
      let o = Regions.Region.ralloc e.lib r2 (Regions.Cleanup.layout_words 16) in
      for i = 0 to 15 do
        check "ralloc cleared despite dirty page" 0 (Sim.Memory.load e.mem (o + (i * 4)))
      done)

let test_large_rstralloc () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let big = Regions.Region.rstralloc e.lib r 20_000 in
      check "regionof large start" r (Regions.Region.regionof e.lib big);
      check "regionof large end" r (Regions.Region.regionof e.lib (big + 19_996));
      Sim.Memory.store e.mem (big + 19_996) 77;
      check "large writable" 77 (Sim.Memory.load e.mem (big + 19_996));
      check_bool "delete with large object" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check "large pages reclaimed" 0 (Regions.Region.live_pages e.lib))

let test_object_too_large_rejected () =
  let e = fresh () in
  let r = Regions.Region.newregion e.lib in
  (match Regions.Region.ralloc e.lib r (Regions.Cleanup.layout_words 2000) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  match Regions.Region.rarrayalloc e.lib r ~n:600 node_layout with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_region_stats () =
  let e = fresh ~safe:false () in
  in_frame e (fun fr ->
      let r1 = Regions.Region.newregion e.lib in
      let r2 = Regions.Region.newregion e.lib in
      Regions.Mutator.set_local e.mut fr 0 r1;
      Regions.Mutator.set_local e.mut fr 1 r2;
      ignore (Regions.Region.ralloc e.lib r1 (Regions.Cleanup.layout_words 3));
      ignore (Regions.Region.ralloc e.lib r1 plain2);
      ignore (Regions.Region.ralloc e.lib r2 plain2);
      let rs = Regions.Region.rstats e.lib in
      check "total regions" 2 (Regions.Rstats.total_regions rs);
      check "max live regions" 2 (Regions.Rstats.max_live_regions rs);
      check "max region bytes" 20 (Regions.Rstats.max_region_bytes rs);
      ignore (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check "live after delete" 1 (Regions.Rstats.live_regions rs);
      let s = Regions.Region.stats e.lib in
      check "allocs" 3 (Alloc.Stats.allocs s);
      check "total bytes" 28 (Alloc.Stats.total_bytes s);
      check "live bytes drops" 8 (Alloc.Stats.live_bytes s))

(* ------------------------------------------------------------------ *)
(* Safety: reference counting *)

let test_unsafe_delete_always_succeeds () =
  let e = fresh ~safe:false () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Mutator.set_local e.mut fr 0 r;
      let p = Regions.Region.ralloc e.lib r node_layout in
      (* An external reference exists, but unsafe regions don't care. *)
      Sim.Memory.store e.mem (Regions.Mutator.global_addr e.mut 0) p;
      check_bool "unsafe delete succeeds" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0))))

let test_safe_delete_local_only () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let p = Regions.Region.ralloc e.lib r node_layout in
      (* Object pointer also in a local: locals don't block deletion of
         their own handle?  They do — any live region pointer into r
         other than the handle itself is an external reference. *)
      ignore p;
      check_bool "delete with only the handle" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0))))

let test_safe_delete_blocked_by_local () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let p = Regions.Region.ralloc e.lib r node_layout in
      Regions.Region.set_local_ptr e.lib fr 1 p;
      check_bool "blocked by live local pointer" false
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check_bool "handle intact" true (Regions.Mutator.get_local fr 0 = r);
      (* Clearing the stale pointer unblocks deletion: the paper's
         "finding stale pointers" porting step. *)
      Regions.Region.set_local_ptr e.lib fr 1 0;
      check_bool "deletable after clearing" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0))))

let test_safe_delete_blocked_by_global () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let p = Regions.Region.ralloc e.lib r node_layout in
      let g = Regions.Mutator.global_addr e.mut 0 in
      Regions.Region.write_ptr e.lib ~addr:g p;
      check "global write counted" 1 (Regions.Region.refcount e.lib r);
      check_bool "blocked by global" false
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      Regions.Region.write_ptr e.lib ~addr:g 0;
      check "overwrite decrements" 0 (Regions.Region.refcount e.lib r);
      check_bool "deletable after null" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0))))

let test_sameregion_not_counted () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let a = Regions.Region.ralloc e.lib r node_layout in
      let b = Regions.Region.ralloc e.lib r node_layout in
      (* a->next = b: a pointer within one region is not external. *)
      Regions.Region.write_ptr e.lib ~addr:(a + 4) b;
      check "sameregion write uncounted" 0 (Regions.Region.refcount e.lib r);
      (* A cycle within the region is collectable (the amelioration of
         reference counting the paper highlights). *)
      Regions.Region.write_ptr e.lib ~addr:(b + 4) a;
      check_bool "cycle within region deletable" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0))))

let test_cross_region_pointer_blocks_and_cleanup_releases () =
  let e = fresh () in
  in_frame e (fun fr ->
      let ra = Regions.Region.newregion e.lib in
      let rb = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 ra;
      Regions.Region.set_local_ptr e.lib fr 1 rb;
      let a = Regions.Region.ralloc e.lib ra node_layout in
      let b = Regions.Region.ralloc e.lib rb node_layout in
      (* a.next = b: region A holds a reference into region B. *)
      Regions.Region.write_ptr e.lib ~addr:(a + 4) b;
      check "B has one external ref" 1 (Regions.Region.refcount e.lib rb);
      check_bool "B not deletable" false
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 1)));
      (* Deleting A runs cleanup_list, destroying a.next and so
         decrementing B's count. *)
      check_bool "A deletable" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check "B released by A's cleanup" 0 (Regions.Region.refcount e.lib rb);
      check_bool "B now deletable" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 1))))

let test_region_handle_in_heap_blocks () =
  let e = fresh () in
  in_frame e (fun fr ->
      let ra = Regions.Region.newregion e.lib in
      let rb = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 ra;
      Regions.Region.set_local_ptr e.lib fr 1 rb;
      (* Store region B's handle inside region A: a Region value is a
         region pointer to the region structure, so this is a counted
         reference into B. *)
      let cell = Regions.Region.ralloc e.lib ra node_layout in
      Regions.Region.write_ptr e.lib ~addr:(cell + 4) rb;
      check "handle in heap counted" 1 (Regions.Region.refcount e.lib rb);
      check_bool "B blocked" false
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 1)));
      check_bool "A deletable" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check_bool "B unblocked" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 1))))

let test_delete_from_global_handle () =
  let e = fresh () in
  let r = Regions.Region.newregion e.lib in
  let g = Regions.Mutator.global_addr e.mut 3 in
  Regions.Region.write_ptr e.lib ~addr:g r;
  check "handle itself counted" 1 (Regions.Region.refcount e.lib r);
  in_frame e (fun _fr ->
      check_bool "delete via global handle" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_memory g));
      check "global nulled" 0 (Sim.Memory.load e.mem g))

let test_two_handles_block () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      Regions.Region.set_local_ptr e.lib fr 1 r;
      check_bool "second handle blocks" false
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      Regions.Region.set_local_ptr e.lib fr 1 0;
      check_bool "single handle deletes" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0))))

let test_scan_unscan_balance () =
  let e = fresh () in
  in_frame e (fun fr0 ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr0 0 r;
      let p = Regions.Region.ralloc e.lib r node_layout in
      Regions.Region.set_local_ptr e.lib fr0 1 p;
      (* In a callee, try (and fail) to delete: the scan counts fr0's
         pointers; on return the unscan must undo them exactly. *)
      Regions.Mutator.with_frame e.mut ~nslots:2 ~ptr_slots:[ 0 ] (fun fr1 ->
          Regions.Region.set_local_ptr e.lib fr1 0 r;
          check_bool "blocked from callee" false
            (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr1, 0)));
          (* After the failed delete, fr0 is still scanned (counted). *)
          check "stored count reflects scanned fr0" 2
            (Regions.Region.refcount e.lib r));
      (* Leaving fr1 returned into scanned fr0; then nothing: fr0 is
         unscanned only when control returns into it. *)
      check "exact count consistent" 2 (Regions.Region.exact_refcount e.lib r);
      Regions.Region.set_local_ptr e.lib fr0 1 0;
      check_bool "deletable once pointer cleared" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr0, 0))))

let test_failed_delete_region_still_usable () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let p = Regions.Region.ralloc e.lib r node_layout in
      Regions.Region.set_local_ptr e.lib fr 1 p;
      check_bool "delete fails" false
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      (* The region must be fully usable afterwards. *)
      let q = Regions.Region.ralloc e.lib r node_layout in
      Sim.Memory.store e.mem q 5;
      check "allocation works after failed delete" 5 (Sim.Memory.load e.mem q))

let test_custom_cleanup_runs () =
  let e = fresh () in
  let hits = ref [] in
  let id =
    Regions.Cleanup.register_custom
      (Regions.Region.cleanups e.lib)
      ~size_bytes:12
      (fun _mem addr -> hits := addr :: !hits)
  in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let a = Regions.Region.ralloc_custom e.lib r id in
      let b = Regions.Region.ralloc_custom e.lib r id in
      check_bool "delete" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check "both finalisers ran" 2 (List.length !hits);
      check_bool "addresses seen" true
        (List.mem a !hits && List.mem b !hits))

let test_array_cleanup () =
  let e = fresh () in
  in_frame e (fun fr ->
      let ra = Regions.Region.newregion e.lib in
      let rb = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 ra;
      Regions.Region.set_local_ptr e.lib fr 1 rb;
      let arr = Regions.Region.rarrayalloc e.lib ra ~n:10 node_layout in
      (* Array contents are cleared. *)
      for i = 0 to 19 do
        check "array cleared" 0 (Sim.Memory.load e.mem (arr + (i * 4)))
      done;
      (* Point three elements into region B. *)
      let targets = List.map (fun _ -> Regions.Region.ralloc e.lib rb node_layout) [ 1; 2; 3 ] in
      List.iteri
        (fun i tgt -> Regions.Region.write_ptr e.lib ~addr:(arr + (i * 8) + 4) tgt)
        targets;
      check "three refs into B" 3 (Regions.Region.refcount e.lib rb);
      check_bool "delete A" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check "array cleanup destroyed all refs" 0 (Regions.Region.refcount e.lib rb))

let test_unsafe_skips_cleanups () =
  let e = fresh ~safe:false () in
  let hits = ref 0 in
  let id =
    Regions.Cleanup.register_custom
      (Regions.Region.cleanups e.lib)
      ~size_bytes:8
      (fun _ _ -> incr hits)
  in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Mutator.set_local e.mut fr 0 r;
      ignore (Regions.Region.ralloc_custom e.lib r id);
      ignore (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check "unsafe runs no cleanups" 0 !hits)

let test_eager_locals_ablation () =
  let e = fresh ~eager_locals:true () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      check "handle counted eagerly" 1 (Regions.Region.refcount e.lib r);
      let p = Regions.Region.ralloc e.lib r node_layout in
      Regions.Region.set_local_ptr e.lib fr 1 p;
      check "object pointer counted eagerly" 2 (Regions.Region.refcount e.lib r);
      check_bool "blocked" false
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      Regions.Region.set_local_ptr e.lib fr 1 0;
      check "count drops on overwrite" 1 (Regions.Region.refcount e.lib r);
      check_bool "deletable" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0))))

let test_safety_cost_accounts () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let c = Sim.Memory.cost e.mem in
      let g = Regions.Mutator.global_addr e.mut 0 in
      let p = Regions.Region.ralloc e.lib r node_layout in
      let rc0 = Sim.Cost.refcount_instrs c in
      Regions.Region.write_ptr e.lib ~addr:g p;
      check "global write costs 16" 16 (Sim.Cost.refcount_instrs c - rc0);
      let rc1 = Sim.Cost.refcount_instrs c in
      let q = Regions.Region.ralloc e.lib r node_layout in
      let rc1b = Sim.Cost.refcount_instrs c in
      check "ralloc costs no refcounting" rc1 rc1b;
      Regions.Region.write_ptr e.lib ~addr:(p + 4) q;
      check "region write costs 23" 23 (Sim.Cost.refcount_instrs c - rc1b);
      let rc2 = Sim.Cost.refcount_instrs c in
      Regions.Region.write_ptr e.lib ~same_region_hint:true ~addr:(q + 4) p;
      check "hinted write costs 2" 2 (Sim.Cost.refcount_instrs c - rc2);
      Regions.Region.write_ptr e.lib ~addr:g 0;
      let scan0 = Sim.Cost.stack_scan_instrs c in
      let cl0 = Sim.Cost.cleanup_instrs c in
      check_bool "delete" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      check_bool "stack scan charged" true (Sim.Cost.stack_scan_instrs c > scan0);
      check_bool "cleanup charged" true (Sim.Cost.cleanup_instrs c > cl0))

(* ------------------------------------------------------------------ *)
(* Property: stored + unscanned-frame counts = model of external refs *)

let qcheck_refcount_model =
  let gen = QCheck.(list (pair (int_bound 5) (pair (int_bound 3) (int_bound 3)))) in
  QCheck.Test.make ~count:100 ~name:"refcount agrees with a reference model"
    gen (fun ops ->
      let e = fresh () in
      Regions.Mutator.with_frame e.mut ~nslots:4 ~ptr_slots:[ 0; 1; 2; 3 ]
        (fun fr ->
          (* Four regions, each with one 4-pointer-field object. *)
          let obj_layout =
            Regions.Cleanup.layout ~size_bytes:16 ~ptr_offsets:[ 0; 4; 8; 12 ]
          in
          let regions =
            Array.init 4 (fun i ->
                let r = Regions.Region.newregion e.lib in
                Regions.Region.set_local_ptr e.lib fr i r;
                r)
          in
          let objs =
            Array.map (fun r -> Regions.Region.ralloc e.lib r obj_layout) regions
          in
          List.iter
            (fun (op, (i, j)) ->
              match op with
              | 0 | 1 ->
                  (* objs.(i).field(op) <- objs.(j) *)
                  Regions.Region.write_ptr e.lib
                    ~addr:(objs.(i) + (op * 4))
                    objs.(j)
              | 2 ->
                  (* global slot i <- objs.(j) *)
                  Regions.Region.write_ptr e.lib
                    ~addr:(Regions.Mutator.global_addr e.mut i)
                    objs.(j)
              | 3 ->
                  Regions.Region.write_ptr e.lib ~addr:(objs.(i) + 8) 0
              | 4 | 5 ->
                  Regions.Region.write_ptr e.lib
                    ~addr:(Regions.Mutator.global_addr e.mut i)
                    0
              | _ -> ())
            ops;
          (* Model: external references to region k = pointers to its
             object or structure from globals, other regions' objects,
             and frame slots. *)
          let model = Array.make 4 0 in
          let classify v =
            Array.iteri
              (fun k r -> if Regions.Region.regionof e.lib v = r then model.(k) <- model.(k) + 1)
              regions
          in
          for g = 0 to 3 do
            classify (Sim.Memory.peek e.mem (Regions.Mutator.global_addr e.mut g))
          done;
          Array.iteri
            (fun i o ->
              for f = 0 to 3 do
                let v = Sim.Memory.peek e.mem (o + (f * 4)) in
                (* sameregion pointers are not external *)
                if Regions.Region.regionof e.lib v <> regions.(i) then classify v
              done)
            objs;
          for s = 0 to 3 do
            classify (Regions.Mutator.get_local fr s)
          done;
          Array.for_all
            (fun k -> Regions.Region.exact_refcount e.lib regions.(k) = model.(k))
            [| 0; 1; 2; 3 |]
          |> fun ok ->
          ok
          && Array.for_all (fun k ->
                 Regions.Region.exact_refcount e.lib regions.(k) = model.(k))
               [| 0; 1; 2; 3 |]))

(* Random region workouts: arbitrary interleavings of region creation,
   allocation, pointer writes and deletion attempts must keep every
   internal invariant intact, and deleteregion must succeed exactly
   when one reference (the handle) remains. *)
let qcheck_region_ops_invariants =
  let gen =
    QCheck.(list (triple (int_bound 4) (int_bound 15) (int_bound 15)))
  in
  QCheck.Test.make ~count:80 ~name:"random region workouts keep invariants"
    gen (fun ops ->
      let e = fresh () in
      let ok = ref true in
      Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun _fr ->
          (* Region handles live in global words 0..15; objects are
             tracked OCaml-side per slot. *)
          let handle g = Regions.Mutator.global_addr e.mut g in
          let objects = Array.make 16 [] in
          let region_at g = Sim.Memory.peek e.mem (handle g) in
          let all_objects () = Array.to_list objects |> List.concat in
          List.iter
            (fun (op, a, b) ->
              match op with
              | 0 ->
                  if region_at a = 0 then begin
                    let r = Regions.Region.newregion e.lib in
                    Regions.Region.write_ptr e.lib ~addr:(handle a) r
                  end
              | 1 ->
                  if region_at a <> 0 then begin
                    let p = Regions.Region.ralloc e.lib (region_at a) node_layout in
                    objects.(a) <- p :: objects.(a)
                  end
              | 2 ->
                  if region_at a <> 0 then
                    ignore (Regions.Region.rstralloc e.lib (region_at a) (4 + b))
              | 3 -> (
                  (* random pointer writes between objects *)
                  match (objects.(a), objects.(b)) with
                  | src :: _, dst :: _ ->
                      Regions.Region.write_ptr e.lib ~addr:(src + 4) dst
                  | src :: _, [] ->
                      Regions.Region.write_ptr e.lib ~addr:(src + 4) 0
                  | [], _ -> ())
              | _ ->
                  if region_at a <> 0 then begin
                    let r = region_at a in
                    let expect = Regions.Region.exact_refcount e.lib r = 1 in
                    let deleted =
                      Regions.Region.deleteregion e.lib
                        (Regions.Region.In_memory (handle a))
                    in
                    if deleted <> expect then ok := false;
                    if deleted then begin
                      objects.(a) <- [];
                      (* other objects may still name the dead region's
                         addresses; the library must treat them as
                         non-regional from now on *)
                      List.iter
                        (fun o ->
                          if
                            Regions.Region.regionof_peek e.lib
                              (Sim.Memory.peek e.mem (o + 4))
                            = 0
                          then ()
                          else ())
                        (all_objects ())
                    end
                  end)
            ops;
          (match Regions.Region.check_invariants e.lib with
          | () -> ()
          | exception Failure _ -> ok := false);
          (* Tear-down: clear every handle and heap pointer, then all
             regions must be deletable. *)
          Array.iteri
            (fun g _ ->
              List.iter
                (fun o -> Regions.Region.write_ptr e.lib ~addr:(o + 4) 0)
                objects.(g))
            objects;
          for g = 0 to 15 do
            if region_at g <> 0 then begin
              if
                not
                  (Regions.Region.deleteregion e.lib
                     (Regions.Region.In_memory (handle g)))
              then ok := false
            end
          done;
          if Regions.Region.live_pages e.lib <> 0 then ok := false);
      !ok)

(* ------------------------------------------------------------------ *)
(* Debug: the region-debugging environment the paper wishes for *)

let test_debug_lists_blocking_references () =
  let e = fresh () in
  in_frame e (fun fr ->
      let ra = Regions.Region.newregion e.lib in
      let rb = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 ra;
      Regions.Region.set_local_ptr e.lib fr 1 rb;
      let b_obj = Regions.Region.ralloc e.lib rb node_layout in
      (* three distinct kinds of external reference into rb: *)
      Regions.Region.set_local_ptr e.lib fr 2 b_obj (* frame slot *);
      let g = Regions.Mutator.global_addr e.mut 0 in
      Regions.Region.write_ptr e.lib ~addr:g b_obj (* global *);
      let a_obj = Regions.Region.ralloc e.lib ra node_layout in
      Regions.Region.write_ptr e.lib ~addr:(a_obj + 4) b_obj (* heap *);
      let refs = Regions.Debug.references_into e.lib rb in
      (* handle in slot 1 + slot 2 + global + a_obj field = 4 *)
      check "four references" 4 (List.length refs);
      let kinds =
        List.map
          (function
            | Regions.Debug.In_frame_slot { slot; _ } -> Printf.sprintf "slot%d" slot
            | Regions.Debug.In_operand _ -> "operand"
            | Regions.Debug.In_global _ -> "global"
            | Regions.Debug.In_region_object { holder; _ } ->
                if holder = ra then "heap" else "other")
          refs
      in
      List.iter
        (fun k -> check_bool ("found " ^ k) true (List.mem k kinds))
        [ "slot1"; "slot2"; "global"; "heap" ];
      (* sameregion pointers are not reported *)
      let b2 = Regions.Region.ralloc e.lib rb node_layout in
      Regions.Region.write_ptr e.lib ~addr:(b2 + 4) b_obj;
      check "sameregion not external" 5
        (List.length (Regions.Debug.references_into e.lib rb) + 1);
      (* explain_delete names the blockers *)
      check_bool "explain says NOT deletable" true
        (let s = Regions.Debug.explain_delete e.lib rb in
         String.length s > 0
         &&
         let rec has i =
           i + 3 <= String.length s && (String.sub s i 3 = "NOT" || has (i + 1))
         in
         has 0);
      (* clear everything; only the handle remains *)
      Regions.Region.set_local_ptr e.lib fr 2 0;
      Regions.Region.write_ptr e.lib ~addr:g 0;
      Regions.Region.write_ptr e.lib ~addr:(a_obj + 4) 0;
      check "only the handle" 1
        (List.length (Regions.Debug.references_into e.lib rb));
      check_bool "now deletable" true
        (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 1))))

let test_debug_iter_objects () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let a = Regions.Region.ralloc e.lib r node_layout in
      let b = Regions.Region.rarrayalloc e.lib r ~n:3 node_layout in
      ignore (Regions.Region.rstralloc e.lib r 100) (* not visited *);
      let seen = ref [] in
      Regions.Debug.iter_objects e.lib r (fun ~obj ~cleanup:_ ->
          seen := obj :: !seen);
      check "two cleanup-bearing objects" 2 (List.length !seen);
      check_bool "both found" true (List.mem a !seen && List.mem b !seen))

let test_check_invariants_clean () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      for i = 1 to 300 do
        if i mod 3 = 0 then ignore (Regions.Region.rstralloc e.lib r (i mod 60 + 4))
        else ignore (Regions.Region.ralloc e.lib r node_layout)
      done;
      ignore (Regions.Region.rarrayalloc e.lib r ~n:20 node_layout);
      Regions.Region.check_invariants e.lib;
      ignore (Regions.Region.deleteregion e.lib (Regions.Region.In_frame (fr, 0)));
      Regions.Region.check_invariants e.lib)

let test_check_invariants_detects_corruption () =
  let e = fresh () in
  in_frame e (fun fr ->
      let r = Regions.Region.newregion e.lib in
      Regions.Region.set_local_ptr e.lib fr 0 r;
      let p = Regions.Region.ralloc e.lib r node_layout in
      (* Clobber the object's cleanup word with a bogus id. *)
      Sim.Memory.poke e.mem (p - 4) 9999;
      match Regions.Region.check_invariants e.lib with
      | () -> Alcotest.fail "expected corruption to be detected"
      | exception Failure _ -> ())

let test_region_allocator_view () =
  (* The malloc-shaped view the differential fuzzer drives. *)
  let e = fresh ~safe:false () in
  let r = Regions.Region.newregion e.lib in
  let a = Regions.Region.region_allocator e.lib r in
  let s = a.Alloc.Allocator.stats in
  let allocs0 = Alloc.Stats.allocs s in
  let p = a.malloc 10 in
  let q = a.malloc 30 in
  Alcotest.(check int) "usable is the rounded request" 12 (a.usable_size p);
  Alcotest.(check int) "usable q" 32 (a.usable_size q);
  Alcotest.(check bool) "same region" true
    (Regions.Region.regionof e.lib p = r && Regions.Region.regionof e.lib q = r);
  a.free p (* no per-object free: storage returns with the region *);
  Alcotest.(check int) "free released nothing" 0 (Alloc.Stats.frees s);
  a.check_heap ();
  let slot = Regions.Mutator.global_addr e.mut 0 in
  Sim.Memory.poke e.mem slot r;
  Alcotest.(check bool) "deleteregion succeeds" true
    (Regions.Region.deleteregion e.lib (Regions.Region.In_memory slot));
  Alcotest.(check int) "all frees land at deleteregion"
    (Alloc.Stats.allocs s - allocs0)
    (Alloc.Stats.frees s);
  Alcotest.(check int) "nothing live" 0 (Alloc.Stats.live_bytes s)

let test_region_oom_leaves_invariants () =
  let e = fresh ~safe:false () in
  let r = Regions.Region.newregion e.lib in
  let p = Regions.Region.rstralloc e.lib r 16 in
  Sim.Memory.store e.mem p 0xBEE5;
  let budget = ref 8 in
  Sim.Memory.set_oom_hook e.mem
    (Some
       (fun n ->
         budget := !budget - n;
         !budget >= 0));
  let faulted = ref false in
  (try
     for _ = 1 to 10_000 do
       ignore (Regions.Region.rstralloc e.lib r 512)
     done
   with Sim.Memory.Fault _ -> faulted := true);
  Alcotest.(check bool) "allocation faulted under page budget" true !faulted;
  (* The denied page must leave every region walkable and earlier
     objects untouched. *)
  Regions.Region.check_invariants e.lib;
  Alcotest.(check int) "object intact" 0xBEE5 (Sim.Memory.load e.mem p);
  Sim.Memory.set_oom_hook e.mem None;
  Alcotest.(check bool) "allocation recovers" true
    (Regions.Region.rstralloc e.lib r 512 <> 0);
  Regions.Region.check_invariants e.lib

(* ------------------------------------------------------------------ *)
(* Emulation *)

let test_emulation_basics () =
  let mem = Sim.Memory.create ~with_cache:false () in
  let a = Alloc.Lea.create mem in
  let emu = Regions.Emulation.create a in
  let r = Regions.Emulation.newregion emu in
  let p = Regions.Emulation.ralloc emu r 40 in
  check "cleared" 0 (Sim.Memory.load mem p);
  Sim.Memory.store mem p 9;
  let q = Regions.Emulation.ralloc emu r 40 in
  check_bool "distinct" true (p <> q);
  let req = Regions.Emulation.requested emu in
  check "requested" 80 (Alloc.Stats.live_bytes req);
  check "overhead" (12 + (2 * 8)) (Regions.Emulation.max_overhead_bytes emu);
  let live_before = Alloc.Stats.live_bytes a.Alloc.Allocator.stats in
  check_bool "overhead visible" true (live_before >= 2 * (40 + 8));
  Regions.Emulation.deleteregion emu r;
  check "all freed" 0 (Alloc.Stats.live_bytes a.Alloc.Allocator.stats);
  check "requested freed" 0 (Alloc.Stats.live_bytes req);
  check "frees" 2 (Alloc.Stats.frees req)

let test_emulation_frees_everything () =
  let mem = Sim.Memory.create ~with_cache:false () in
  let a = Alloc.Sun.create mem in
  let emu = Regions.Emulation.create a in
  let r = Regions.Emulation.newregion emu in
  for _ = 1 to 500 do
    ignore (Regions.Emulation.rstralloc emu r 60)
  done;
  Regions.Emulation.deleteregion emu r;
  check "everything freed" 0 (Alloc.Stats.live_bytes a.Alloc.Allocator.stats)

(* ------------------------------------------------------------------ *)
(* Local counts (parallel regions, paper section 1) *)

let test_local_counts_basics () =
  let t = Regions.Local_counts.create ~nprocs:3 in
  Regions.Local_counts.acquire t ~proc:0;
  Regions.Local_counts.acquire t ~proc:1;
  check "sum" 2 (Regions.Local_counts.sum t);
  check "local 0" 1 (Regions.Local_counts.local t ~proc:0);
  check_bool "not deletable" false (Regions.Local_counts.deletable t);
  Regions.Local_counts.release t ~proc:0;
  Regions.Local_counts.release t ~proc:1;
  check_bool "deletable" true (Regions.Local_counts.deletable t);
  check_bool "try_delete" true (Regions.Local_counts.try_delete t);
  check_bool "deleted" true (Regions.Local_counts.deleted t);
  match Regions.Local_counts.acquire t ~proc:0 with
  | () -> Alcotest.fail "expected Invalid_argument after deletion"
  | exception Invalid_argument _ -> ()

let test_local_counts_negative () =
  (* Process 1 releases a reference created by process 0: its local
     count goes negative without synchronisation, and the sum is still
     right. *)
  let t = Regions.Local_counts.create ~nprocs:2 in
  Regions.Local_counts.acquire t ~proc:0;
  Regions.Local_counts.transfer t ~from_proc:0 ~to_proc:1;
  check "proc 0 back to zero" 0 (Regions.Local_counts.local t ~proc:0);
  check "proc 1 holds it" 1 (Regions.Local_counts.local t ~proc:1);
  (* proc 0 destroys the reference proc 1 was credited with: its local
     count goes negative, no synchronisation needed *)
  Regions.Local_counts.release t ~proc:0;
  check "negative local count" (-1) (Regions.Local_counts.local t ~proc:0);
  check "sum zero" 0 (Regions.Local_counts.sum t);
  check_bool "deletable with mixed history" true (Regions.Local_counts.deletable t)

let test_local_counts_delete () =
  let t = Regions.Local_counts.create ~nprocs:2 in
  check_bool "fresh counter deletable" true (Regions.Local_counts.try_delete t);
  check_bool "double delete refused" false (Regions.Local_counts.try_delete t)

let qcheck_local_counts_model =
  (* Random interleavings of acquire/transfer/release across processes
     against a reference model holding the multiset of live refs. *)
  let gen = QCheck.(list (pair (int_bound 2) (pair (int_bound 3) (int_bound 3)))) in
  QCheck.Test.make ~count:200 ~name:"local counts sum equals live references"
    gen (fun ops ->
      let t = Regions.Local_counts.create ~nprocs:4 in
      let live = Array.make 4 0 in
      List.iter
        (fun (op, (p, q)) ->
          match op with
          | 0 ->
              Regions.Local_counts.acquire t ~proc:p;
              live.(p) <- live.(p) + 1
          | 1 ->
              if live.(p) > 0 then begin
                Regions.Local_counts.transfer t ~from_proc:p ~to_proc:q;
                live.(p) <- live.(p) - 1;
                live.(q) <- live.(q) + 1
              end
          | _ ->
              if live.(p) > 0 then begin
                Regions.Local_counts.release t ~proc:p;
                live.(p) <- live.(p) - 1
              end)
        ops;
      let total = Array.fold_left ( + ) 0 live in
      Regions.Local_counts.sum t = total
      && Regions.Local_counts.deletable t = (total = 0))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "regions"
    [
      ( "mutator",
        [
          tc "frames" `Quick test_mutator_frames;
          tc "with_frame exception" `Quick test_mutator_with_frame_exception;
          tc "deep stack" `Quick test_mutator_deep_stack;
          tc "globals + roots" `Quick test_mutator_globals;
          tc "unscan hook" `Quick test_mutator_unscan_hook;
        ] );
      ( "cleanup",
        [
          tc "registry" `Quick test_cleanup_registry;
          tc "registry contract" `Quick test_cleanup_registry_contract;
          tc "layout validation" `Quick test_cleanup_layout_validation;
        ] );
      ( "alloc",
        [
          tc "basics (safe)" `Quick (test_alloc_basics ~safe:true);
          tc "basics (unsafe)" `Quick (test_alloc_basics ~safe:false);
          tc "many pages (safe)" `Quick (test_alloc_many_pages ~safe:true);
          tc "many pages (unsafe)" `Quick (test_alloc_many_pages ~safe:false);
          tc "page pool reuse" `Quick test_page_pool_reuse;
          tc "region offsetting" `Quick test_region_offsetting;
          tc "rstralloc uncleared/separate" `Quick
            test_rstralloc_not_cleared_and_separate;
          tc "large rstralloc" `Quick test_large_rstralloc;
          tc "oversized rejected" `Quick test_object_too_large_rejected;
          tc "statistics" `Quick test_region_stats;
          tc "region_allocator view" `Quick test_region_allocator_view;
          tc "OOM leaves invariants" `Quick test_region_oom_leaves_invariants;
        ] );
      ( "safety",
        [
          tc "unsafe always deletes" `Quick test_unsafe_delete_always_succeeds;
          tc "delete with only handle" `Quick test_safe_delete_local_only;
          tc "blocked by local" `Quick test_safe_delete_blocked_by_local;
          tc "blocked by global" `Quick test_safe_delete_blocked_by_global;
          tc "sameregion & cycles" `Quick test_sameregion_not_counted;
          tc "cross-region + cleanup" `Quick
            test_cross_region_pointer_blocks_and_cleanup_releases;
          tc "handle stored in heap" `Quick test_region_handle_in_heap_blocks;
          tc "delete via global handle" `Quick test_delete_from_global_handle;
          tc "two handles block" `Quick test_two_handles_block;
          tc "scan/unscan balance" `Quick test_scan_unscan_balance;
          tc "failed delete leaves region usable" `Quick
            test_failed_delete_region_still_usable;
          tc "custom cleanup" `Quick test_custom_cleanup_runs;
          tc "array cleanup" `Quick test_array_cleanup;
          tc "unsafe skips cleanups" `Quick test_unsafe_skips_cleanups;
          tc "eager locals ablation" `Quick test_eager_locals_ablation;
          tc "barrier instruction costs" `Quick test_safety_cost_accounts;
          QCheck_alcotest.to_alcotest qcheck_refcount_model;
          QCheck_alcotest.to_alcotest qcheck_region_ops_invariants;
        ] );
      ( "debug",
        [
          tc "lists blocking references" `Quick
            test_debug_lists_blocking_references;
          tc "iter objects" `Quick test_debug_iter_objects;
          tc "invariants clean" `Quick test_check_invariants_clean;
          tc "invariants detect corruption" `Quick
            test_check_invariants_detects_corruption;
        ] );
      ( "emulation",
        [
          tc "basics" `Quick test_emulation_basics;
          tc "frees everything" `Quick test_emulation_frees_everything;
        ] );
      ( "local counts",
        [
          tc "basics" `Quick test_local_counts_basics;
          tc "negative locals are fine" `Quick test_local_counts_negative;
          tc "delete paths" `Quick test_local_counts_delete;
          QCheck_alcotest.to_alcotest qcheck_local_counts_model;
        ] );
    ]
