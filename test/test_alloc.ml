(* Tests for the malloc/free allocators: Sun (best fit), BSD
   (power-of-two), Lea (segregated bins). *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type impl = { label : string; make : Sim.Memory.t -> Alloc.Allocator.t }

let impls =
  [
    { label = "sun"; make = Alloc.Sun.create };
    { label = "lea"; make = Alloc.Lea.create };
    { label = "bsd"; make = Alloc.Bsd.create };
  ]

let fresh () = Sim.Memory.create ~with_cache:false ()

(* ------------------------------------------------------------------ *)
(* Behaviours common to all allocators *)

let test_basic impl () =
  let mem = fresh () in
  let a = impl.make mem in
  let p = a.Alloc.Allocator.malloc 10 in
  check_bool "aligned" true (p land 3 = 0);
  check_bool "mapped" true (Sim.Memory.is_mapped mem p);
  check_bool "usable >= requested" true (a.usable_size p >= 10);
  (* The block is writable over its usable size. *)
  let words = a.usable_size p / 4 in
  for i = 0 to words - 1 do
    Sim.Memory.store mem (p + (i * 4)) (i + 1)
  done;
  for i = 0 to words - 1 do
    check "readback" (i + 1) (Sim.Memory.load mem (p + (i * 4)))
  done;
  a.free p

let test_no_overlap impl () =
  let mem = fresh () in
  let a = impl.make mem in
  let rng = Sim.Rng.create 11 in
  let blocks = ref [] in
  for _ = 1 to 200 do
    let size = 1 + Sim.Rng.int rng 200 in
    let p = a.Alloc.Allocator.malloc size in
    blocks := (p, a.usable_size p) :: !blocks
  done;
  let sorted =
    List.sort (fun (p1, _) (p2, _) -> compare p1 p2) !blocks
  in
  let rec disjoint = function
    | (p1, s1) :: ((p2, _) :: _ as rest) ->
        check_bool "blocks disjoint" true (p1 + s1 <= p2);
        disjoint rest
    | [ _ ] | [] -> ()
  in
  disjoint sorted

let test_reuse_after_free impl () =
  let mem = fresh () in
  let a = impl.make mem in
  let p = a.Alloc.Allocator.malloc 64 in
  a.free p;
  let q = a.malloc 64 in
  check (impl.label ^ " reuses freed block") p q

let test_double_free_detected impl () =
  let mem = fresh () in
  let a = impl.make mem in
  let p = a.Alloc.Allocator.malloc 32 in
  a.free p;
  (match a.free p with
  | () -> Alcotest.fail "expected Invalid_free"
  | exception Alloc.Allocator.Invalid_free _ -> ());
  match a.free 0 with
  | () -> Alcotest.fail "expected Invalid_free for NULL"
  | exception Alloc.Allocator.Invalid_free _ -> ()

let test_stats impl () =
  let mem = fresh () in
  let a = impl.make mem in
  let s = a.Alloc.Allocator.stats in
  let p = a.malloc 10 in
  let q = a.malloc 21 in
  check "allocs" 2 (Alloc.Stats.allocs s);
  (* 10 -> 12, 21 -> 24: paper rounds sizes to a multiple of 4 *)
  check "total bytes rounded" 36 (Alloc.Stats.total_bytes s);
  check "live" 36 (Alloc.Stats.live_bytes s);
  a.free p;
  check "live after free" 24 (Alloc.Stats.live_bytes s);
  check "max live" 36 (Alloc.Stats.max_live_bytes s);
  a.free q;
  check "frees" 2 (Alloc.Stats.frees s);
  check_bool "os bytes nonzero" true (Alloc.Stats.os_bytes s > 0)

let test_large_allocation impl () =
  let mem = fresh () in
  let a = impl.make mem in
  let p = a.Alloc.Allocator.malloc 100_000 in
  check_bool "large usable" true (a.usable_size p >= 100_000);
  Sim.Memory.store mem (p + 99_996) 5;
  check "end writable" 5 (Sim.Memory.load mem (p + 99_996));
  a.free p

let test_malloc_zero_rejected impl () =
  let mem = fresh () in
  let a = impl.make mem in
  match a.Alloc.Allocator.malloc 0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_cost_charged_to_alloc impl () =
  let mem = fresh () in
  let a = impl.make mem in
  let c = Sim.Memory.cost mem in
  let before = Sim.Cost.alloc_instrs c in
  let base_before = Sim.Cost.base_instrs c in
  let p = a.Alloc.Allocator.malloc 40 in
  a.free p;
  check_bool "alloc instrs charged" true (Sim.Cost.alloc_instrs c > before);
  check "no base instrs" base_before (Sim.Cost.base_instrs c)

let test_check_heap_clean impl () =
  let mem = fresh () in
  let a = impl.make mem in
  a.Alloc.Allocator.check_heap ();
  let ps = Array.init 40 (fun i -> a.malloc (8 + (i * 13 mod 200))) in
  a.check_heap ();
  Array.iteri (fun i p -> if i mod 2 = 0 then a.free p) ps;
  a.check_heap ()

let test_check_heap_detects_corruption impl () =
  let mem = fresh () in
  let a = impl.make mem in
  let p = a.Alloc.Allocator.malloc 32 in
  let _guard = a.malloc 32 in
  a.free p;
  (* Smash the freed chunk's header word (cost-free, as a stray store
     through a dangling pointer would).  The walk must notice. *)
  Sim.Memory.poke mem (p - 4) 0x7FFF0003;
  match a.check_heap () with
  | () -> Alcotest.fail "corrupted header not detected"
  | exception Failure _ -> ()

let test_oom_leaves_heap_consistent impl () =
  let mem = fresh () in
  let a = impl.make mem in
  let keep = a.Alloc.Allocator.malloc 40 in
  Sim.Memory.store mem keep 0x1234;
  let budget = ref 32 in
  Sim.Memory.set_oom_hook mem
    (Some
       (fun n ->
         budget := !budget - n;
         !budget >= 0));
  let faulted = ref false in
  (try
     for _ = 1 to 1_000 do
       ignore (a.malloc 4000)
     done
   with Sim.Memory.Fault _ -> faulted := true);
  check_bool "allocation faulted under page budget" true !faulted;
  (* The denied request must not have corrupted anything: the heap
     walks clean, earlier blocks are intact, and once the hook is
     lifted the allocator works again. *)
  a.check_heap ();
  check "earlier block intact" 0x1234 (Sim.Memory.load mem keep);
  Sim.Memory.set_oom_hook mem None;
  let p = a.malloc 4000 in
  check_bool "allocation succeeds after hook removed" true (p <> 0);
  a.free p;
  a.free keep;
  a.check_heap ()

(* ------------------------------------------------------------------ *)
(* Random traces (qcheck) *)

let trace_gen =
  (* A trace is a list of (op, size): op < 60 -> alloc of size, else
     free of a random live block. *)
  QCheck.(list (pair (int_bound 99) (int_range 1 300)))

let run_trace impl trace =
  let mem = fresh () in
  let a = impl.make mem in
  let check_heap = a.Alloc.Allocator.check_heap in
  let live = ref [] in
  let nlive = ref 0 in
  List.iter
    (fun (op, size) ->
      if op < 60 || !nlive = 0 then begin
        let p = a.Alloc.Allocator.malloc size in
        (* Fill with a sentinel derived from the address. *)
        Sim.Memory.store mem p (p lxor 0x5A5A5A5A);
        live := (p, size) :: !live;
        incr nlive
      end
      else begin
        let idx = op mod !nlive in
        let p, _ = List.nth !live idx in
        (* The sentinel must have survived while live. *)
        if Sim.Memory.load mem p <> (p lxor 0x5A5A5A5A) land 0xFFFFFFFF then
          failwith "live block corrupted";
        a.free p;
        live := List.filteri (fun i _ -> i <> idx) !live;
        decr nlive
      end;
      check_heap ())
    trace;
  (* All remaining sentinels intact. *)
  List.for_all
    (fun (p, _) -> Sim.Memory.load mem p = (p lxor 0x5A5A5A5A) land 0xFFFFFFFF)
    !live

let qcheck_trace impl =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:(impl.label ^ " random alloc/free trace preserves contents")
       trace_gen
       (fun trace -> run_trace impl trace))

(* ------------------------------------------------------------------ *)
(* Allocator-specific behaviours *)

let test_sun_coalescing () =
  let mem = fresh () in
  let a, heap = Alloc.Sun.create_with_heap mem in
  (* Allocate three adjacent blocks, free them in an order that
     exercises prev- and next-coalescing, then a block spanning all
     three must fit without growing the heap. *)
  let p1 = a.Alloc.Allocator.malloc 100 in
  let p2 = a.malloc 100 in
  let p3 = a.malloc 100 in
  let guard = a.malloc 100 in
  let os = Alloc.Stats.os_bytes a.stats in
  a.free p1;
  a.free p3;
  a.free p2;
  Alloc.Chunks.check_invariants heap;
  let big = a.malloc 300 in
  check "coalesced block reused" p1 big;
  check "no heap growth" os (Alloc.Stats.os_bytes a.stats);
  a.free guard

let test_sun_best_fit () =
  let mem = fresh () in
  let a = Alloc.Sun.create mem in
  (* Create two free holes (64 and 32 usable); a 30-byte request must
     take the smaller one even though the bigger is found first. *)
  let h1 = a.Alloc.Allocator.malloc 64 in
  let g1 = a.malloc 16 in
  let h2 = a.malloc 28 in
  let g2 = a.malloc 16 in
  ignore g1;
  ignore g2;
  a.free h1;
  a.free h2;
  let p = a.malloc 28 in
  check "best fit picks smaller hole" h2 p

let test_bsd_power_of_two () =
  let mem = fresh () in
  let a = Alloc.Bsd.create mem in
  let p = a.Alloc.Allocator.malloc 10 in
  check "rounded to 16 total" 12 (a.usable_size p);
  let q = a.malloc 13 in
  check "rounded to 32 total" 28 (a.usable_size q);
  let r = a.malloc 100 in
  check "rounded to 128 total" 124 (a.usable_size r)

let test_bsd_overhead_large () =
  (* Allocating many 36-byte objects: BSD burns 64 bytes each, Lea ~40.
     The paper's Figure 8 shows exactly this gap. *)
  let run make =
    let mem = fresh () in
    let a = make mem in
    for _ = 1 to 2000 do
      ignore (a.Alloc.Allocator.malloc 36)
    done;
    Alloc.Stats.os_bytes a.stats
  in
  let bsd = run Alloc.Bsd.create and lea = run Alloc.Lea.create in
  check_bool "bsd uses more memory" true (bsd > lea * 3 / 2)

let test_lea_bin_reuse_fast () =
  let mem = fresh () in
  let a = Alloc.Lea.create mem in
  (* Freeing then reallocating the same size must hit the exact bin. *)
  let p = a.Alloc.Allocator.malloc 48 in
  let _guard = a.malloc 48 in
  a.free p;
  let q = a.malloc 48 in
  check "exact bin reuse" p q

let test_lea_faster_than_sun_on_many_sizes () =
  (* With many distinct live sizes, Sun's full-list best-fit scan costs
     far more instructions than Lea's bin lookup. *)
  let run make =
    let mem = fresh () in
    let a = make mem in
    let rng = Sim.Rng.create 5 in
    let live = Array.make 400 0 in
    for i = 0 to 399 do
      live.(i) <- a.Alloc.Allocator.malloc (8 + Sim.Rng.int rng 512)
    done;
    (* Churn: free and reallocate randomly. *)
    for _ = 1 to 2000 do
      let i = Sim.Rng.int rng 400 in
      a.free live.(i);
      live.(i) <- a.malloc (8 + Sim.Rng.int rng 512)
    done;
    Sim.Cost.alloc_instrs (Sim.Memory.cost mem)
  in
  let sun = run Alloc.Sun.create and lea = run Alloc.Lea.create in
  check_bool "lea cheaper than sun" true (lea < sun)

let test_sun_split_remainder_reusable () =
  let mem = fresh () in
  let a, heap = Alloc.Sun.create_with_heap mem in
  (* Free a big block, then take a small piece: the remainder must be
     a well-formed free chunk that satisfies the next request. *)
  let big = a.Alloc.Allocator.malloc 1000 in
  let _guard = a.malloc 16 in
  a.free big;
  let small = a.malloc 100 in
  check "split reuses the hole" big small;
  Alloc.Chunks.check_invariants heap;
  let rest = a.malloc 800 in
  check_bool "remainder serves the next request" true
    (rest > big && rest < big + 1008)

let test_lea_no_extension_when_bin_has_fit () =
  let mem = fresh () in
  let a = Alloc.Lea.create mem in
  let keep = Array.init 50 (fun _ -> a.Alloc.Allocator.malloc 64) in
  Array.iter a.free keep;
  let os = Alloc.Stats.os_bytes a.stats in
  for _ = 1 to 50 do
    ignore (a.malloc 64)
  done;
  check "bins satisfied everything" os (Alloc.Stats.os_bytes a.stats)

(* Lea's constant-time bin index against the recursive definition it
   replaced, kept here as the reference: every multiple of 8 from 16
   to 2^20, then every size within 24 bytes of each bin boundary
   ([1025 * 2^k]) and of each power of two up to 2^29, and a fixed
   sample of sizes below 2^29. *)
let reference_bin_index size =
  if size <= 512 + 8 then (size - 16) / 8
  else begin
    let rec log2 n acc = if n <= 1024 then acc else log2 (n / 2) (acc + 1) in
    Int.min 70 (63 + log2 size 0)
  end

let test_lea_bin_index () =
  let same size =
    let got = Alloc.Lea.bin_index size and want = reference_bin_index size in
    if got <> want then
      Alcotest.failf "bin_index %d = %d, the reference gives %d" size got want
  in
  let s = ref 16 in
  while !s <= 1 lsl 20 do
    same !s;
    s := !s + 8
  done;
  for k = 0 to 19 do
    List.iter
      (fun centre ->
        for d = -24 to 24 do
          let size = centre + d in
          if size >= 16 && size < 1 lsl 29 then same size
        done)
      [ 1025 lsl k; 1 lsl (k + 10) ]
  done;
  let rng = Sim.Rng.create 7 in
  for _ = 1 to 100_000 do
    same (16 + Sim.Rng.int rng ((1 lsl 29) - 16))
  done

let test_bsd_size_class_isolation () =
  let mem = fresh () in
  let a = Alloc.Bsd.create mem in
  (* Freed 16-byte chunks must never satisfy 32-byte requests. *)
  let small = Array.init 20 (fun _ -> a.Alloc.Allocator.malloc 8) in
  Array.iter a.free small;
  let big = a.malloc 20 in
  check_bool "no cross-class reuse" true
    (Array.for_all (fun s -> s <> big) small)

let test_usable_size_at_least_requested () =
  List.iter
    (fun impl ->
      let mem = fresh () in
      let a = impl.make mem in
      List.iter
        (fun size ->
          let p = a.Alloc.Allocator.malloc size in
          check_bool
            (Printf.sprintf "%s usable(%d) >= %d" impl.label size size)
            true
            (a.usable_size p >= size))
        [ 1; 3; 4; 15; 16; 17; 100; 555; 4000; 5000 ])
    impls

let test_interleaved_allocators_share_memory () =
  (* Two allocators over one simulated memory must not interfere (the
     chunk heaps handle non-contiguous segments). *)
  let mem = fresh () in
  let a, ha = Alloc.Sun.create_with_heap mem in
  let b, hb = Alloc.Lea.create_with_heap mem in
  let pa = Array.init 100 (fun i -> a.Alloc.Allocator.malloc (16 + (i mod 64))) in
  let pb = Array.init 100 (fun i -> b.Alloc.Allocator.malloc (16 + (i mod 64))) in
  Array.iteri (fun i p -> Sim.Memory.store mem p i) pa;
  Array.iteri (fun i p -> Sim.Memory.store mem p (1000 + i)) pb;
  Array.iteri (fun i p -> check "a intact" i (Sim.Memory.load mem p)) pa;
  Array.iteri (fun i p -> check "b intact" (1000 + i) (Sim.Memory.load mem p)) pb;
  Array.iter a.free pa;
  Array.iter b.free pb;
  Alloc.Chunks.check_invariants ha;
  Alloc.Chunks.check_invariants hb

let test_stats_total_monotone () =
  let mem = fresh () in
  let a = Alloc.Lea.create mem in
  let p = a.Alloc.Allocator.malloc 100 in
  let t1 = Alloc.Stats.total_bytes a.stats in
  a.free p;
  ignore (a.malloc 100);
  check "total counts every allocation" (t1 + 100)
    (Alloc.Stats.total_bytes a.stats)

(* ------------------------------------------------------------------ *)
(* The Stats address table against a [Hashtbl] model *)

type stats_op =
  | S_alloc of int * int  (* addr, size *)
  | S_free of int
  | S_burst of int * int  (* first addr, count: fresh 16-apart allocations *)

(* Addresses from a few pools: a small set (so re-allocation at a live
   address and frees of live ones are common), page-aligned ones (the
   collision case of an identity hash), addresses just below 2^29, and
   arbitrary word-aligned ones (mostly unknown when freed). *)
let stats_addr =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> 4096 + (i * 8)) (int_bound 31));
        (3, map (fun k -> k * 4096) (int_range 1 ((1 lsl 17) - 1)));
        (2, map (fun k -> (1 lsl 29) - (4 * k)) (int_range 1 64));
        (1, map (fun w -> w * 4) (int_range 1 ((1 lsl 27) - 1)));
      ])

let stats_size =
  QCheck.Gen.(
    frequency
      [ (6, int_range 1 600); (1, map (fun k -> (1 lsl 29) - k) (int_bound 8)) ])

let stats_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun a s -> S_alloc (a, s)) stats_addr stats_size);
        (5, map (fun a -> S_free a) stats_addr);
        (1, map2 (fun a n -> S_burst (a, n)) stats_addr (int_range 100 2000));
      ])

let stats_arb =
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
    QCheck.Gen.(list_size (int_bound 120) stats_op_gen)

let prop_stats_matches_hashtbl =
  QCheck.Test.make ~name:"Stats address table matches a Hashtbl model"
    ~count:100 stats_arb (fun ops ->
      let st = Alloc.Stats.create () in
      let model = Hashtbl.create 16 in
      let allocs = ref 0 and frees = ref 0 in
      let live = ref 0 and max_live = ref 0 in
      let same () =
        Alloc.Stats.allocs st = !allocs
        && Alloc.Stats.frees st = !frees
        && Alloc.Stats.live_bytes st = !live
        && Alloc.Stats.max_live_bytes st = !max_live
      in
      let alloc addr size =
        Alloc.Stats.on_alloc st ~addr ~size;
        let size = (size + 3) land lnot 3 in
        incr allocs;
        live := !live + size;
        if !live > !max_live then max_live := !live;
        Hashtbl.replace model addr size;
        same ()
      in
      let free addr =
        Alloc.Stats.on_free st addr;
        (match Hashtbl.find_opt model addr with
        | Some size ->
            Hashtbl.remove model addr;
            incr frees;
            live := !live - size
        | None -> ());
        same ()
      in
      let rec burst a n =
        n = 0 || a >= 1 lsl 29 || (alloc a 8 && burst (a + 16) (n - 1))
      in
      List.for_all
        (function
          | S_alloc (a, s) -> alloc a s
          | S_free a -> free a
          | S_burst (a, n) -> burst a n)
        ops
      (* Draining the model frees every live entry: each must still be
         found after all the moves deletion made. *)
      && List.for_all free (Hashtbl.fold (fun a _ acc -> a :: acc) model []))

let () =
  let tc = Alcotest.test_case in
  let common impl =
    ( "common:" ^ impl.label,
      [
        tc "basic alloc/write/free" `Quick (test_basic impl);
        tc "no overlap" `Quick (test_no_overlap impl);
        tc "reuse after free" `Quick (test_reuse_after_free impl);
        tc "double free detected" `Quick (test_double_free_detected impl);
        tc "stats" `Quick (test_stats impl);
        tc "large allocation" `Quick (test_large_allocation impl);
        tc "malloc 0 rejected" `Quick (test_malloc_zero_rejected impl);
        tc "cost context" `Quick (test_cost_charged_to_alloc impl);
        tc "check_heap clean on valid heaps" `Quick (test_check_heap_clean impl);
        tc "check_heap detects corruption" `Quick
          (test_check_heap_detects_corruption impl);
        tc "OOM leaves heap consistent" `Quick
          (test_oom_leaves_heap_consistent impl);
        qcheck_trace impl;
      ] )
  in
  Alcotest.run "alloc"
    (List.map common impls
    @ [
        ( "sun",
          [
            tc "coalescing" `Quick test_sun_coalescing;
            tc "best fit" `Quick test_sun_best_fit;
          ] );
        ( "bsd",
          [
            tc "power of two rounding" `Quick test_bsd_power_of_two;
            tc "memory overhead vs lea" `Quick test_bsd_overhead_large;
          ] );
        ( "lea",
          [
            tc "exact bin reuse" `Quick test_lea_bin_reuse_fast;
            tc "cheaper than sun under churn" `Quick
              test_lea_faster_than_sun_on_many_sizes;
            tc "bins avoid heap growth" `Quick
              test_lea_no_extension_when_bin_has_fit;
            tc "bin index" `Quick test_lea_bin_index;
          ] );
        ( "cross-cutting",
          [
            tc "sun split remainder" `Quick test_sun_split_remainder_reusable;
            tc "bsd size-class isolation" `Quick test_bsd_size_class_isolation;
            tc "usable >= requested everywhere" `Quick
              test_usable_size_at_least_requested;
            tc "two allocators share one memory" `Quick
              test_interleaved_allocators_share_memory;
            tc "stats total monotone" `Quick test_stats_total_monotone;
            QCheck_alcotest.to_alcotest prop_stats_matches_hashtbl;
          ] );
      ])
