(* Tests for the Boehm-Weiser-style conservative collector. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type env = {
  mem : Sim.Memory.t;
  mut : Regions.Mutator.t;
  alloc : Alloc.Allocator.t;
  gc : Gcsim.Boehm.t;
}

let fresh ?trigger_min_bytes () =
  let mem = Sim.Memory.create ~with_cache:false () in
  let mut = Regions.Mutator.create mem in
  let alloc, gc =
    Gcsim.Boehm.create ?trigger_min_bytes
      ~roots:(fun f -> Regions.Mutator.iter_roots mut f)
      mem
  in
  { mem; mut; alloc; gc }

let test_alloc_zeroed () =
  let e = fresh () in
  let p = e.alloc.Alloc.Allocator.malloc 40 in
  for i = 0 to 9 do
    check "zeroed" 0 (Sim.Memory.load e.mem (p + (i * 4)))
  done;
  check_bool "live" true (Gcsim.Boehm.is_live e.gc p);
  check "usable covers class" 48 (e.alloc.usable_size p)

let test_free_is_noop () =
  let e = fresh () in
  let p = e.alloc.Alloc.Allocator.malloc 16 in
  e.alloc.free p;
  check_bool "still live after free" true (Gcsim.Boehm.is_live e.gc p)

let test_reachable_survive_garbage_collected () =
  let e = fresh () in
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun fr ->
      (* A linked list rooted in a frame slot survives; unrooted
         objects die. *)
      let rec build n tail =
        if n = 0 then tail
        else begin
          let p = e.alloc.Alloc.Allocator.malloc 16 in
          Sim.Memory.store e.mem p n;
          Sim.Memory.store e.mem (p + 4) tail;
          build (n - 1) p
        end
      in
      let list = build 50 0 in
      Regions.Mutator.set_local e.mut fr 0 list;
      let garbage = Array.init 100 (fun _ -> e.alloc.malloc 16) in
      Gcsim.Boehm.collect e.gc;
      (* Walk the list: all nodes alive with intact contents. *)
      let rec walk p n =
        if p <> 0 then begin
          check_bool "node live" true (Gcsim.Boehm.is_live e.gc p);
          check "node value" n (Sim.Memory.load e.mem p);
          walk (Sim.Memory.load e.mem (p + 4)) (n + 1)
        end
        else check "walked all" 51 n
      in
      walk list 1;
      let dead =
        Array.to_list garbage
        |> List.filter (fun p -> not (Gcsim.Boehm.is_live e.gc p))
      in
      (* Conservative collection may pin a few by accident, but the
         bulk must be reclaimed. *)
      check_bool "most garbage reclaimed" true (List.length dead >= 95))

let test_heap_pointers_traced () =
  let e = fresh () in
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun fr ->
      let a = e.alloc.Alloc.Allocator.malloc 16 in
      let b = e.alloc.malloc 16 in
      let c = e.alloc.malloc 16 in
      Sim.Memory.store e.mem a b (* a -> b *);
      Sim.Memory.store e.mem b c (* b -> c *);
      Regions.Mutator.set_local e.mut fr 0 a;
      Gcsim.Boehm.collect e.gc;
      check_bool "transitively reachable c live" true (Gcsim.Boehm.is_live e.gc c))

let test_global_roots () =
  let e = fresh () in
  let p = e.alloc.Alloc.Allocator.malloc 24 in
  Sim.Memory.store e.mem (Regions.Mutator.global_addr e.mut 5) p;
  Gcsim.Boehm.collect e.gc;
  check_bool "global-rooted object live" true (Gcsim.Boehm.is_live e.gc p)

let test_interior_pointers_pin () =
  let e = fresh () in
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun fr ->
      let p = e.alloc.Alloc.Allocator.malloc 64 in
      (* Only an interior pointer survives — conservative GC must pin. *)
      Regions.Mutator.set_local e.mut fr 0 (p + 20);
      Gcsim.Boehm.collect e.gc;
      check_bool "interior pointer pins object" true (Gcsim.Boehm.is_live e.gc p))

let test_memory_reused_after_collection () =
  let e = fresh () in
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun _fr ->
      for _ = 1 to 200 do
        ignore (e.alloc.Alloc.Allocator.malloc 32)
      done;
      let os = Alloc.Stats.os_bytes e.alloc.stats in
      Gcsim.Boehm.collect e.gc;
      (* Everything was garbage; new allocations must reuse the heap. *)
      for _ = 1 to 200 do
        ignore (e.alloc.Alloc.Allocator.malloc 32)
      done;
      check "heap not grown" os (Alloc.Stats.os_bytes e.alloc.stats))

let test_automatic_trigger () =
  let e = fresh ~trigger_min_bytes:8192 () in
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun _fr ->
      for _ = 1 to 3000 do
        ignore (e.alloc.Alloc.Allocator.malloc 48)
      done;
      check_bool "collections happened" true (Gcsim.Boehm.collections e.gc > 1);
      (* Dead-on-arrival allocations: the heap stays far below the
         144 KB total allocated. *)
      check_bool "heap bounded" true (Gcsim.Boehm.heap_bytes e.gc < 100_000))

let test_large_objects () =
  let e = fresh () in
  Regions.Mutator.with_frame e.mut ~nslots:2 ~ptr_slots:[] (fun fr ->
      let big = e.alloc.Alloc.Allocator.malloc 10_000 in
      Regions.Mutator.set_local e.mut fr 0 big;
      Sim.Memory.store e.mem (big + 9996) 3;
      Gcsim.Boehm.collect e.gc;
      check_bool "rooted large object live" true (Gcsim.Boehm.is_live e.gc big);
      check "contents survive" 3 (Sim.Memory.load e.mem (big + 9996));
      Regions.Mutator.set_local e.mut fr 0 0;
      Gcsim.Boehm.collect e.gc;
      check_bool "unrooted large object dies" false (Gcsim.Boehm.is_live e.gc big);
      (* Its pages are reused for the next same-size allocation. *)
      let os = Alloc.Stats.os_bytes e.alloc.stats in
      let big2 = e.alloc.malloc 10_000 in
      check "pages reused" big big2;
      check "no growth" os (Alloc.Stats.os_bytes e.alloc.stats))

let test_gc_cost_charged () =
  let e = fresh () in
  let c = Sim.Memory.cost e.mem in
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun fr ->
      let p = e.alloc.Alloc.Allocator.malloc 100 in
      Regions.Mutator.set_local e.mut fr 0 p;
      let before = Sim.Cost.alloc_instrs c in
      let base_before = Sim.Cost.base_instrs c in
      Gcsim.Boehm.collect e.gc;
      check_bool "gc work charged to alloc account" true
        (Sim.Cost.alloc_instrs c > before + 50);
      check "no base charge" base_before (Sim.Cost.base_instrs c))

let test_no_collection_below_threshold () =
  let e = fresh ~trigger_min_bytes:1_000_000 () in
  for _ = 1 to 500 do
    ignore (e.alloc.Alloc.Allocator.malloc 32)
  done;
  check "no automatic collection yet" 0 (Gcsim.Boehm.collections e.gc)

let test_usable_size_classes () =
  let e = fresh () in
  let p = e.alloc.Alloc.Allocator.malloc 1 in
  check "1 byte -> 16-byte class" 16 (e.alloc.usable_size p);
  let q = e.alloc.malloc 17 in
  check "17 bytes -> 32-byte class" 32 (e.alloc.usable_size q);
  let r = e.alloc.malloc 512 in
  check "512 bytes -> 512 class" 512 (e.alloc.usable_size r);
  let big = e.alloc.malloc 600 in
  check "large rounded to words" 600 (e.alloc.usable_size big)

let test_large_interior_pointer_pins () =
  let e = fresh () in
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun fr ->
      let big = e.alloc.Alloc.Allocator.malloc 9000 in
      (* only a pointer into the middle of the second page survives *)
      Regions.Mutator.set_local e.mut fr 0 (big + 5000);
      Gcsim.Boehm.collect e.gc;
      check_bool "interior pointer pins the large object" true
        (Gcsim.Boehm.is_live e.gc big))

let test_sweep_updates_stats () =
  let e = fresh () in
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun _fr ->
      for _ = 1 to 100 do
        ignore (e.alloc.Alloc.Allocator.malloc 24)
      done;
      let live_before = Alloc.Stats.live_bytes e.alloc.stats in
      check_bool "live tracked" true (live_before >= 2400);
      Gcsim.Boehm.collect e.gc;
      check "sweep logically frees the garbage" 0
        (Alloc.Stats.live_bytes e.alloc.stats))

let test_self_referential_cycle_collected () =
  (* Tracing collects cycles — the very thing plain reference counting
     cannot do (and which regions handle by making cycles
     intra-region). *)
  let e = fresh () in
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun fr ->
      let a = e.alloc.Alloc.Allocator.malloc 16 in
      let b = e.alloc.malloc 16 in
      Sim.Memory.store e.mem a b;
      Sim.Memory.store e.mem b a;
      Regions.Mutator.set_local e.mut fr 0 a;
      Gcsim.Boehm.collect e.gc;
      check_bool "cycle kept while rooted" true
        (Gcsim.Boehm.is_live e.gc a && Gcsim.Boehm.is_live e.gc b);
      Regions.Mutator.set_local e.mut fr 0 0;
      Gcsim.Boehm.collect e.gc;
      check_bool "cycle collected when unrooted" true
        ((not (Gcsim.Boehm.is_live e.gc a)) && not (Gcsim.Boehm.is_live e.gc b)))

let test_check_heap_clean_across_collections () =
  let e = fresh ~trigger_min_bytes:4096 () in
  e.alloc.Alloc.Allocator.check_heap ();
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun fr ->
      let keep = e.alloc.malloc 64 in
      Regions.Mutator.set_local e.mut fr 0 keep;
      for i = 1 to 300 do
        ignore (e.alloc.Alloc.Allocator.malloc (8 + (i mod 480)))
      done;
      e.alloc.check_heap ();
      Gcsim.Boehm.collect e.gc;
      (* After a sweep the free lists are at their fullest. *)
      e.alloc.check_heap ())

let test_check_heap_detects_freelist_corruption () =
  let e = fresh () in
  let p = e.alloc.Alloc.Allocator.malloc 16 in
  let q = e.alloc.malloc 16 in
  ignore q;
  Gcsim.Boehm.collect e.gc;
  (* Nothing is rooted, so [p]'s class free list is populated; plant a
     misaligned link in the swept object. *)
  check_bool "object swept" true (not (Gcsim.Boehm.is_live e.gc p));
  Sim.Memory.poke e.mem p (p + 2);
  match e.alloc.check_heap () with
  | () -> Alcotest.fail "corrupted free list not detected"
  | exception Failure _ -> ()

let test_oom_leaves_heap_consistent () =
  let e = fresh () in
  let keep = e.alloc.Alloc.Allocator.malloc 40 in
  Sim.Memory.store e.mem (keep + 36) 0x5151;
  Regions.Mutator.with_frame e.mut ~nslots:1 ~ptr_slots:[] (fun fr ->
      Regions.Mutator.set_local e.mut fr 0 keep;
      let budget = ref 16 in
      Sim.Memory.set_oom_hook e.mem
        (Some
           (fun n ->
             budget := !budget - n;
             !budget >= 0));
      let faulted = ref false in
      (try
         for _ = 1 to 10_000 do
           ignore (e.alloc.malloc 4000)
         done
       with Sim.Memory.Fault _ -> faulted := true);
      check_bool "allocation faulted under page budget" true !faulted;
      e.alloc.check_heap ();
      check "rooted block intact" 0x5151 (Sim.Memory.load e.mem (keep + 36));
      Sim.Memory.set_oom_hook e.mem None;
      check_bool "allocation recovers" true (e.alloc.malloc 4000 <> 0);
      e.alloc.check_heap ())

let qcheck_gc_soundness =
  (* Random object graphs: after collection, everything reachable from
     the roots is live and has intact contents. *)
  let gen = QCheck.(pair (int_bound 1000) (list (pair (int_bound 49) (int_bound 49)))) in
  QCheck.Test.make ~count:40 ~name:"reachability soundness on random graphs" gen
    (fun (seed, edges) ->
      let e = fresh ~trigger_min_bytes:4096 () in
      Regions.Mutator.with_frame e.mut ~nslots:2 ~ptr_slots:[] (fun fr ->
          let rng = Sim.Rng.create seed in
          let objs = Array.init 50 (fun i ->
              let p = e.alloc.Alloc.Allocator.malloc 24 in
              Sim.Memory.store e.mem (p + 20) (i lxor 0x77);
              p)
          in
          (* Random edges in the first two words. *)
          List.iter
            (fun (i, j) ->
              let slot = Sim.Rng.int rng 2 in
              Sim.Memory.store e.mem (objs.(i) + (slot * 4)) objs.(j))
            edges;
          (* Root object 0 only. *)
          Regions.Mutator.set_local e.mut fr 0 objs.(0);
          (* Compute reachability in the model. *)
          let reachable = Array.make 50 false in
          let index_of p =
            let rec go i = if i = 50 then None else if objs.(i) = p then Some i else go (i + 1) in
            go 0
          in
          let rec reach i =
            if not reachable.(i) then begin
              reachable.(i) <- true;
              for s = 0 to 1 do
                match index_of (Sim.Memory.peek e.mem (objs.(i) + (s * 4))) with
                | Some j -> reach j
                | None -> ()
              done
            end
          in
          reach 0;
          Gcsim.Boehm.collect e.gc;
          let sound = ref true in
          Array.iteri
            (fun i p ->
              if reachable.(i) then begin
                if not (Gcsim.Boehm.is_live e.gc p) then sound := false;
                if Sim.Memory.peek e.mem (p + 20) <> i lxor 0x77 then sound := false
              end)
            objs;
          !sound))

(* The collector counts its objects without an address table: a
   malloc is a group allocation, and a sweep releases what it freed in
   one group free, sized from the per-slot sizes of small blocks and
   [l_bytes] of large ones.  Random programs of small and large
   mallocs, root and heap pointer stores, and forced collections, on
   a low trigger so that mallocs collect too.  A reference table fed
   each malloc and, after every collection, a free of each object the
   collection swept must agree with the collector's readouts after
   every step.  An object a malloc's own collection swept may come
   back as that malloc's result, so it is freed in the reference
   first. *)
type gc_op = Malloc of int | Root of int | Link of int * int | Collect

let qcheck_gc_stats_match_reference =
  let op =
    QCheck.Gen.(
      frequency
        [
          (8, map (fun s -> Malloc s) (int_range 1 512));
          (1, map (fun s -> Malloc s) (int_range 513 20_000));
          (2, map (fun i -> Root i) (int_bound 3));
          (2, map2 (fun i j -> Link (i, j)) (int_bound 63) (int_bound 63));
          (1, return Collect);
        ])
  in
  let print = function
    | Malloc s -> Printf.sprintf "malloc %d" s
    | Root i -> Printf.sprintf "root %d" i
    | Link (i, j) -> Printf.sprintf "link %d %d" i j
    | Collect -> "collect"
  in
  QCheck.Test.make ~count:60 ~name:"stats match an address table"
    (QCheck.make ~print:QCheck.Print.(list print)
       QCheck.Gen.(list_size (int_range 1 400) op))
    (fun ops ->
      let e = fresh ~trigger_min_bytes:8192 () in
      let reference = Alloc.Stats.create () in
      let addrs = Hashtbl.create 64 in
      let recent = Array.make 64 0 and count = ref 0 in
      let readouts st =
        Alloc.Stats.
          (allocs st, frees st, total_bytes st, live_bytes st, max_live_bytes st)
      in
      let sweep ~also =
        Hashtbl.filter_map_inplace
          (fun a () ->
            if a = also || not (Gcsim.Boehm.is_live e.gc a) then begin
              Alloc.Stats.on_free reference a;
              None
            end
            else Some ())
          addrs
      in
      Regions.Mutator.with_frame e.mut ~nslots:4 ~ptr_slots:[] (fun fr ->
          List.for_all
            (fun op ->
              let pick i = recent.((!count - 1 - i) land 63) in
              (match op with
              | Malloc size ->
                  let before = Gcsim.Boehm.collections e.gc in
                  let p = e.alloc.Alloc.Allocator.malloc size in
                  if Gcsim.Boehm.collections e.gc <> before then sweep ~also:p;
                  Alloc.Stats.on_alloc reference ~addr:p ~size;
                  Hashtbl.replace addrs p ();
                  recent.(!count land 63) <- p;
                  incr count
              | Root i -> if !count > 0 then Regions.Mutator.set_local e.mut fr i (pick 0)
              | Link (i, j) ->
                  (* Only into a live object: a swept one's first word
                     links its free list. *)
                  if i < !count && j < !count && Gcsim.Boehm.is_live e.gc (pick i)
                  then Sim.Memory.store e.mem (pick i) (pick j)
              | Collect ->
                  Gcsim.Boehm.collect e.gc;
                  sweep ~also:0);
              readouts e.alloc.stats = readouts reference)
            ops))

(* The large-block free store against a reference list: blocks
   pushed newest first, a request taking the first block of the
   smallest page count that fits, found by a fold and removed by a
   filter.  Random push/take sequences over mixed page counts must
   take the same block every time and leave the same blocks free. *)
let list_take pages l =
  let fit =
    List.fold_left
      (fun acc ((p, _) as e) ->
        if p < pages then acc
        else match acc with Some (bp, _) when bp <= p -> acc | _ -> Some e)
      None l
  in
  Option.map (fun ((_, b) as e) -> (b, List.filter (fun e' -> e' != e) l)) fit

let qcheck_free_large_matches_list =
  QCheck.Test.make ~name:"free large store picks as a list does" ~count:300
    QCheck.(list (pair bool (int_range 1 12)))
    (fun ops ->
      let module F = Gcsim.Boehm.Free_large in
      let store = F.create ~none:(-1) in
      let rec go id list = function
        | [] ->
            let left = ref [] in
            F.iter (fun b -> left := b :: !left) store;
            List.sort compare !left = List.sort compare (List.map snd list)
        | (true, pages) :: ops ->
            F.push store pages id;
            go (id + 1) ((pages, id) :: list) ops
        | (false, pages) :: ops -> (
            match (F.take store pages, list_take pages list) with
            | -1, None -> go id list ops
            | b, Some (b', list) -> b = b' && go id list ops
            | _, None -> false)
      in
      go 0 [] ops)

(* A heavy-tailed malloc trace: nearly every allocation is large, up
   to ~170 free large blocks are held at once, and 30 000 objects
   replay in well under a second.  Its summary under the collector is
   pinned. *)
let test_heavy_trace_replay_pinned () =
  let spec = "n=30000,size=heavy:512:16384,life=lifo:64,seed=3" in
  let p = Result.get_ok (Trace.Gen.of_string spec) in
  let path = Filename.temp_file "gcsim-heavy" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Gen.generate ~out:path p;
      match Trace.Format.open_file path with
      | Error e -> Alcotest.failf "open failed: %s" e
      | Ok r ->
          let res =
            Fun.protect
              ~finally:(fun () -> Trace.Format.close r)
              (fun () ->
                Trace.Replay.run r Workloads.Api.(Direct Gc))
          in
          Alcotest.(check string)
            "summary"
            "gen/gc: cycles=35427277 base=0 mem=35427277 stalls=0/0 os=968K \
             req_max=319K allocs=30000 (generated: 30000 objects, 96 \
             live-object slots)"
            (Format.asprintf "%a" Workloads.Results.pp res))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "gcsim"
    [
      ( "boehm",
        [
          tc "alloc zeroed" `Quick test_alloc_zeroed;
          tc "free is noop" `Quick test_free_is_noop;
          tc "reachable survive, garbage collected" `Quick
            test_reachable_survive_garbage_collected;
          tc "heap pointers traced" `Quick test_heap_pointers_traced;
          tc "global roots" `Quick test_global_roots;
          tc "interior pointers pin" `Quick test_interior_pointers_pin;
          tc "memory reused after collection" `Quick
            test_memory_reused_after_collection;
          tc "automatic trigger" `Quick test_automatic_trigger;
          tc "large objects" `Quick test_large_objects;
          tc "gc cost charged" `Quick test_gc_cost_charged;
          tc "no collection below threshold" `Quick
            test_no_collection_below_threshold;
          tc "usable size classes" `Quick test_usable_size_classes;
          tc "large interior pointer pins" `Quick
            test_large_interior_pointer_pins;
          tc "sweep updates stats" `Quick test_sweep_updates_stats;
          tc "cycles collected" `Quick test_self_referential_cycle_collected;
          tc "check_heap clean across collections" `Quick
            test_check_heap_clean_across_collections;
          tc "check_heap detects free-list corruption" `Quick
            test_check_heap_detects_freelist_corruption;
          tc "OOM leaves heap consistent" `Quick test_oom_leaves_heap_consistent;
          QCheck_alcotest.to_alcotest qcheck_gc_soundness;
          QCheck_alcotest.to_alcotest qcheck_free_large_matches_list;
          QCheck_alcotest.to_alcotest qcheck_gc_stats_match_reference;
          tc "heavy trace replay pinned" `Quick test_heavy_trace_replay_pinned;
        ] );
    ]
