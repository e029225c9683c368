(* Tests for the simulated machine: memory, cost accounting, cache. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh ?(with_cache = false) () = Sim.Memory.create ~with_cache ()

(* ------------------------------------------------------------------ *)
(* Machine *)

let test_machine_rounding () =
  let m = Sim.Machine.ultrasparc_i in
  check "round_word 0" 0 (Sim.Machine.round_word m 0);
  check "round_word 1" 4 (Sim.Machine.round_word m 1);
  check "round_word 4" 4 (Sim.Machine.round_word m 4);
  check "round_word 5" 8 (Sim.Machine.round_word m 5);
  check "words 9" 3 (Sim.Machine.words m 9);
  check "round_page 1" 4096 (Sim.Machine.round_page m 1);
  check "round_page 4096" 4096 (Sim.Machine.round_page m 4096);
  check "round_page 4097" 8192 (Sim.Machine.round_page m 4097)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 42 and b = Sim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next a) (Sim.Rng.next b)
  done

let test_rng_bounds () =
  let r = Sim.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 100 do
    let f = Sim.Rng.float r 3.0 in
    check_bool "float range" true (f >= 0.0 && f < 3.0)
  done

let test_rng_spread () =
  let r = Sim.Rng.create 3 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i n -> check_bool (Printf.sprintf "bucket %d populated" i) true (n > 500))
    buckets

(* ------------------------------------------------------------------ *)
(* Cost *)

let test_cost_contexts () =
  let c = Sim.Cost.create () in
  Sim.Cost.instr c 3;
  Sim.Cost.with_context c Sim.Cost.Alloc (fun () -> Sim.Cost.instr c 5);
  Sim.Cost.with_context c Sim.Cost.Refcount (fun () -> Sim.Cost.instr c 7);
  Sim.Cost.with_context c Sim.Cost.Stack_scan (fun () -> Sim.Cost.instr c 11);
  Sim.Cost.with_context c Sim.Cost.Cleanup (fun () -> Sim.Cost.instr c 13);
  check "base" 3 (Sim.Cost.base_instrs c);
  check "alloc" 5 (Sim.Cost.alloc_instrs c);
  check "refcount" 7 (Sim.Cost.refcount_instrs c);
  check "stack_scan" 11 (Sim.Cost.stack_scan_instrs c);
  check "cleanup" 13 (Sim.Cost.cleanup_instrs c);
  check "memory" 36 (Sim.Cost.memory_instrs c);
  check "total" 39 (Sim.Cost.total_instrs c)

let test_cost_context_restored_on_exception () =
  let c = Sim.Cost.create () in
  (try Sim.Cost.with_context c Sim.Cost.Alloc (fun () -> failwith "boom")
   with Failure _ -> ());
  check_bool "context restored" true (Sim.Cost.context c = Sim.Cost.Base)

let test_cost_within () =
  let c = Sim.Cost.create () in
  let add a b =
    Sim.Cost.instr c a;
    a + b
  in
  check "result" 12 (Sim.Cost.within c Sim.Cost.Alloc add 5 7);
  (try
     Sim.Cost.within c Sim.Cost.Refcount
       (fun n () ->
         Sim.Cost.instr c n;
         failwith "boom")
       3 ()
   with Failure _ -> ());
  check_bool "context restored" true (Sim.Cost.context c = Sim.Cost.Base);
  check "alloc" 5 (Sim.Cost.alloc_instrs c);
  check "refcount charged before the raise" 3 (Sim.Cost.refcount_instrs c);
  check "base" 0 (Sim.Cost.base_instrs c)

let test_cost_nesting () =
  let c = Sim.Cost.create () in
  Sim.Cost.with_context c Sim.Cost.Alloc (fun () ->
      Sim.Cost.instr c 1;
      Sim.Cost.with_context c Sim.Cost.Cleanup (fun () -> Sim.Cost.instr c 2);
      Sim.Cost.instr c 4);
  check "alloc gets outer" 5 (Sim.Cost.alloc_instrs c);
  check "cleanup gets inner" 2 (Sim.Cost.cleanup_instrs c)

let test_cost_cycles () =
  let c = Sim.Cost.create () in
  Sim.Cost.instr c 10;
  Sim.Cost.add_read_stall c 4;
  Sim.Cost.add_write_stall c 6;
  check "cycles" 20 (Sim.Cost.cycles c);
  Sim.Cost.reset c;
  check "reset" 0 (Sim.Cost.cycles c)

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_map_pages () =
  let m = fresh () in
  let p1 = Sim.Memory.map_pages m 1 in
  let p2 = Sim.Memory.map_pages m 2 in
  check "first page skips NULL page" 4096 p1;
  check "pages contiguous" (p1 + 4096) p2;
  check "os bytes" (3 * 4096) (Sim.Memory.os_bytes m);
  check_bool "mapped" true (Sim.Memory.is_mapped m p1);
  check_bool "null unmapped" false (Sim.Memory.is_mapped m 0)

let test_memory_roundtrip () =
  let m = fresh () in
  let p = Sim.Memory.map_pages m 1 in
  Sim.Memory.store m p 0xDEADBEEF;
  check "word roundtrip" 0xDEADBEEF (Sim.Memory.load m p);
  Sim.Memory.store m (p + 4) (-1);
  check "truncated to 32 bits" 0xFFFFFFFF (Sim.Memory.load m (p + 4));
  check "sign extension" (-1) (Sim.Memory.load_signed m (p + 4));
  Sim.Memory.store_byte m (p + 8) 0x41;
  check "byte roundtrip" 0x41 (Sim.Memory.load_byte m (p + 8))

let test_memory_faults () =
  let m = fresh () in
  let p = Sim.Memory.map_pages m 1 in
  let expect_fault f =
    match f () with
    | _ -> Alcotest.fail "expected Fault"
    | exception Sim.Memory.Fault _ -> ()
  in
  expect_fault (fun () -> Sim.Memory.load m (p + 1));
  expect_fault (fun () -> Sim.Memory.load m 0);
  expect_fault (fun () -> Sim.Memory.load m (p + 4096));
  expect_fault (fun () -> Sim.Memory.store m 0 1);
  expect_fault (fun () -> Sim.Memory.load_byte m (p + 4096))

let test_memory_clear () =
  let m = fresh () in
  let p = Sim.Memory.map_pages m 1 in
  for i = 0 to 9 do
    Sim.Memory.store m (p + (i * 4)) 7
  done;
  Sim.Memory.clear m p 17;
  (* 17 bytes -> 5 words cleared *)
  for i = 0 to 4 do
    check "cleared word" 0 (Sim.Memory.peek m (p + (i * 4)))
  done;
  check "word beyond clear untouched" 7 (Sim.Memory.peek m (p + 20))

let test_memory_costs_charged () =
  let m = fresh () in
  let p = Sim.Memory.map_pages m 1 in
  let c = Sim.Memory.cost m in
  let before = Sim.Cost.total_instrs c in
  Sim.Memory.store m p 1;
  ignore (Sim.Memory.load m p);
  ignore (Sim.Memory.load_byte m p);
  check "three instructions" (before + 3) (Sim.Cost.total_instrs c);
  Sim.Memory.poke m p 9;
  ignore (Sim.Memory.peek m p);
  check "peek/poke free" (before + 3) (Sim.Cost.total_instrs c)

let test_memory_growth () =
  let m = fresh () in
  (* Force backing-store growth past the initial 1 MB. *)
  let p = Sim.Memory.map_pages m 600 in
  let last = p + (600 * 4096) - 4 in
  Sim.Memory.store m last 123;
  check "write after growth" 123 (Sim.Memory.load m last)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_read_hit_miss () =
  let m = fresh ~with_cache:true () in
  let cache = Option.get (Sim.Memory.cache m) in
  let p = Sim.Memory.map_pages m 4 in
  ignore (Sim.Memory.load m p);
  check "first access misses" 1 (Sim.Cache.l1_misses cache);
  ignore (Sim.Memory.load m p);
  ignore (Sim.Memory.load m (p + 4));
  (* same 32-byte line *)
  check "subsequent hits" 2 (Sim.Cache.l1_hits cache);
  check "no new misses" 1 (Sim.Cache.l1_misses cache)

let test_cache_conflict () =
  let m = fresh ~with_cache:true () in
  let cache = Option.get (Sim.Memory.cache m) in
  (* L1 is 16 KB direct mapped: addresses 16 KB apart conflict. *)
  let p = Sim.Memory.map_pages m 16 in
  ignore (Sim.Memory.load m p);
  ignore (Sim.Memory.load m (p + 16384));
  ignore (Sim.Memory.load m p);
  check "conflict misses" 3 (Sim.Cache.l1_misses cache)

let test_cache_read_stalls_charged () =
  let m = fresh ~with_cache:true () in
  let c = Sim.Memory.cost m in
  let p = Sim.Memory.map_pages m 1 in
  ignore (Sim.Memory.load m p);
  let stalls = Sim.Cost.read_stall_cycles c in
  (* Cold miss in both levels: l1 penalty + l2 penalty. *)
  check "cold miss stall" (6 + 40) stalls;
  ignore (Sim.Memory.load m p);
  check "hit adds no stall" stalls (Sim.Cost.read_stall_cycles c)

let test_cache_write_stalls () =
  let m = fresh ~with_cache:true () in
  let c = Sim.Memory.cost m in
  let p = Sim.Memory.map_pages m 16 in
  (* Back-to-back stores (1 instr each) to distinct L2 lines overwhelm
     an 8-deep store buffer draining at >=3 cycles per store. *)
  for i = 0 to 63 do
    Sim.Memory.store m (p + (i * 64)) i
  done;
  check_bool "write stalls occurred" true (Sim.Cost.write_stall_cycles c > 0)

let test_cache_sequential_vs_strided () =
  (* Sequential access has far fewer misses than 16 KB-strided access:
     the locality property the paper exploits with regions. *)
  let run stride n =
    let m = fresh ~with_cache:true () in
    let cache = Option.get (Sim.Memory.cache m) in
    let p = Sim.Memory.map_pages m 256 in
    for i = 0 to n - 1 do
      ignore (Sim.Memory.load m (p + (i * stride mod (256 * 4096))))
    done;
    Sim.Cache.l1_misses cache
  in
  let seq = run 4 4096 and strided = run 16384 4096 in
  check_bool "sequential misses fewer" true (seq < strided / 4)

let test_cache_associativity_absorbs_conflicts () =
  (* Two addresses one L1-capacity apart conflict when direct mapped
     but coexist in a 2-way set. *)
  let run ways =
    let machine = Sim.Machine.with_associativity Sim.Machine.ultrasparc_i ~ways in
    let m = Sim.Memory.create ~machine ~with_cache:true () in
    let cache = Option.get (Sim.Memory.cache m) in
    let p = Sim.Memory.map_pages m 16 in
    for _ = 1 to 100 do
      ignore (Sim.Memory.load m p);
      ignore (Sim.Memory.load m (p + 16384))
    done;
    Sim.Cache.l1_misses cache
  in
  check_bool "direct mapped thrashes" true (run 1 > 150);
  check "2-way holds both lines" 2 (run 2)

let test_cache_lru_within_set () =
  (* With 2 ways, three conflicting lines evict in LRU order. *)
  let machine = Sim.Machine.with_associativity Sim.Machine.ultrasparc_i ~ways:2 in
  let m = Sim.Memory.create ~machine ~with_cache:true () in
  let cache = Option.get (Sim.Memory.cache m) in
  let p = Sim.Memory.map_pages m 16 in
  let a = p and b = p + 8192 and c = p + 16384 in
  (* 2-way L1: sets = 256, lines 8 KB apart share a set *)
  ignore (Sim.Memory.load m a);
  ignore (Sim.Memory.load m b);
  ignore (Sim.Memory.load m c) (* evicts a (LRU) *);
  let misses = Sim.Cache.l1_misses cache in
  ignore (Sim.Memory.load m b) (* hit: b was MRU before c *);
  check "b still resident" misses (Sim.Cache.l1_misses cache);
  ignore (Sim.Memory.load m a) (* miss: a was evicted *);
  check "a was evicted" (misses + 1) (Sim.Cache.l1_misses cache)

(* ------------------------------------------------------------------ *)
(* Bulk memory operations *)

let test_memory_store_bytes () =
  let m = fresh () in
  let p = Sim.Memory.map_pages m 1 in
  Sim.Memory.store_bytes m (p + 3) "hello";
  String.iteri
    (fun i c -> check "byte copied" (Char.code c) (Sim.Memory.load_byte m (p + 3 + i)))
    "hello";
  Sim.Memory.store_bytes m p "" (* empty copy is a no-op *)

let test_memory_block_roundtrip () =
  let m = fresh () in
  let p = Sim.Memory.map_pages m 1 in
  let words = [| 1; 0xFFFFFFFF; 0; 42; 0xDEADBEEF |] in
  Sim.Memory.store_block m p words;
  Alcotest.(check (array int)) "block roundtrip" words (Sim.Memory.load_block m p 5);
  Alcotest.(check (array int)) "empty block" [||] (Sim.Memory.load_block m p 0)

let test_memory_block_faults () =
  let m = fresh () in
  let p = Sim.Memory.map_pages m 1 in
  let expect_fault f =
    match f () with
    | _ -> Alcotest.fail "expected Fault"
    | exception Sim.Memory.Fault _ -> ()
  in
  expect_fault (fun () -> Sim.Memory.load_block m (p + 1) 2);
  expect_fault (fun () -> Sim.Memory.load_block m (p + 4092) 2);
  expect_fault (fun () -> Sim.Memory.store_block m (p + 4092) [| 1; 2 |]);
  expect_fault (fun () -> Sim.Memory.store_bytes m (p + 4095) "ab")

(* ------------------------------------------------------------------ *)
(* qcheck properties: the optimised hot paths are observationally
   identical to the naive word-by-word / Queue-based implementations. *)

let qtest = QCheck_alcotest.to_alcotest

(* Traces of (is_read, word slot) over four mapped pages. *)
let trace_arb = QCheck.(list (pair bool (int_bound 4095)))

let counters m =
  let c = Sim.Memory.cost m in
  let cache = Option.get (Sim.Memory.cache m) in
  ( Sim.Cache.l1_hits cache,
    Sim.Cache.l1_misses cache,
    Sim.Cache.l2_misses cache,
    Sim.Cache.stores cache,
    Sim.Cost.total_instrs c,
    Sim.Cost.read_stall_cycles c,
    Sim.Cost.write_stall_cycles c,
    Sim.Cost.cycles c )

let prop_cache_deterministic =
  QCheck.Test.make ~name:"identical traces give identical counts" ~count:50
    trace_arb (fun trace ->
      let run () =
        let m = Sim.Memory.create ~with_cache:true () in
        ignore (Sim.Memory.map_pages m 4);
        List.iter
          (fun (is_read, slot) ->
            let addr = 4096 + (slot * 4) in
            if is_read then ignore (Sim.Memory.load m addr)
            else Sim.Memory.store m addr slot)
          trace;
        counters m
      in
      run () = run ())

(* The ring-buffer store buffer vs the old Queue-based implementation,
   on random traces of (work between stores, drain latency). *)
let sb_trace_arb =
  QCheck.(pair (1 -- 8) (list (pair (int_bound 8) (int_bound 14))))

let queue_reference depth ops =
  let q = Queue.create () in
  let last = ref 0 and now = ref 0 and stalls = ref [] in
  List.iter
    (fun (work, lat0) ->
      let lat = lat0 + 1 in
      now := !now + work + 1;
      let rec drain () =
        match Queue.peek_opt q with
        | Some c when c <= !now ->
            ignore (Queue.pop q);
            drain ()
        | Some _ | None -> ()
      in
      drain ();
      let stall =
        if Queue.length q >= depth then begin
          let oldest = Queue.pop q in
          let s = oldest - !now in
          now := !now + s;
          s
        end
        else 0
      in
      let start = max !now !last in
      let completion = start + lat in
      last := completion;
      Queue.push completion q;
      stalls := stall :: !stalls)
    ops;
  List.rev !stalls

let ring_run depth ops =
  let sb = Sim.Store_buffer.create ~depth in
  let now = ref 0 and stalls = ref [] in
  List.iter
    (fun (work, lat0) ->
      let lat = lat0 + 1 in
      now := !now + work + 1;
      let s = Sim.Store_buffer.push sb ~now:!now ~latency:lat in
      now := !now + s;
      stalls := s :: !stalls)
    ops;
  List.rev !stalls

let prop_ring_matches_queue =
  QCheck.Test.make ~name:"ring buffer matches Queue reference" ~count:200
    sb_trace_arb (fun (depth, ops) ->
      queue_reference depth ops = ring_run depth ops)

(* Shallow rings under long traces: every push past the first [depth]
   wraps the ring, so index arithmetic bugs surface immediately. *)
let sb_wrap_arb =
  QCheck.(
    pair (1 -- 3) (list_of_size Gen.(50 -- 150) (pair (int_bound 3) (int_bound 14))))

let prop_ring_wraparound_matches_queue =
  QCheck.Test.make ~name:"ring wraparound matches Queue reference" ~count:100
    sb_wrap_arb (fun (depth, ops) ->
      queue_reference depth ops = ring_run depth ops)

(* Stores drain strictly in order: each push's completion cycle is
   later than its predecessor's, and the buffer never holds more than
   [depth] stores. *)
let prop_ring_drain_order =
  QCheck.Test.make ~name:"ring drains in order within its depth" ~count:200
    sb_trace_arb (fun (depth, ops) ->
      let sb = Sim.Store_buffer.create ~depth in
      let now = ref 0 and last = ref 0 and ok = ref true in
      List.iter
        (fun (work, lat0) ->
          now := !now + work + 1;
          now := !now + Sim.Store_buffer.push sb ~now:!now ~latency:(lat0 + 1);
          let c = Sim.Store_buffer.last_completion sb in
          if c <= !last then ok := false;
          if Sim.Store_buffer.length sb > depth then ok := false;
          last := c)
        ops;
      !ok)

(* Hand-computed wraparound: depth 2, four dependent 10-cycle stores
   (no work between pushes).  Pushes 1-2 fill the ring for free; push
   3 arrives at cycle 3 with the ring full and waits for store 1
   (completes at 11): 8 stall cycles; push 4 arrives at 12 and waits
   for store 2 (completes at 21): 9 stall cycles. *)
let test_store_buffer_wraparound () =
  let stalls = ring_run 2 [ (0, 9); (0, 9); (0, 9); (0, 9) ] in
  Alcotest.(check (list int)) "stalls" [ 0; 0; 8; 9 ] stalls

(* Bulk word ops vs naive load/store loops: same data, same costs. *)
let block_arb =
  QCheck.(
    pair (int_bound 200)
      (list_of_size Gen.(int_bound 120) (int_bound 0xFFFFFF)))

let prop_block_ops_match_loops =
  QCheck.Test.make ~name:"load/store_block cost-identical to word loops"
    ~count:50 block_arb (fun (off, ws) ->
      let words = Array.of_list ws in
      let n = Array.length words in
      let setup () =
        let m = Sim.Memory.create ~with_cache:true () in
        (m, Sim.Memory.map_pages m 8 + (off * 4))
      in
      let m1, base1 = setup () in
      Array.iteri (fun i v -> Sim.Memory.store m1 (base1 + (i * 4)) v) words;
      let out1 = Array.init n (fun i -> Sim.Memory.load m1 (base1 + (i * 4))) in
      let m2, base2 = setup () in
      Sim.Memory.store_block m2 base2 words;
      let out2 = Sim.Memory.load_block m2 base2 n in
      out1 = out2 && out2 = words && counters m1 = counters m2)

let prop_store_bytes_matches_loop =
  QCheck.Test.make ~name:"store_bytes cost-identical to byte loop" ~count:50
    QCheck.(pair (int_bound 100) printable_string)
    (fun (off, s) ->
      let setup () =
        let m = Sim.Memory.create ~with_cache:true () in
        let pages = ((off + String.length s) / 4096) + 1 in
        (m, Sim.Memory.map_pages m pages + off)
      in
      let m1, base1 = setup () in
      String.iteri (fun i c -> Sim.Memory.store_byte m1 (base1 + i) (Char.code c)) s;
      let m2, base2 = setup () in
      Sim.Memory.store_bytes m2 base2 s;
      counters m1 = counters m2
      && Array.for_all Fun.id
           (Array.init (String.length s) (fun i ->
                Sim.Memory.load_byte m1 (base1 + i)
                = Sim.Memory.load_byte m2 (base2 + i))))

let prop_clear_matches_store_loop =
  QCheck.Test.make ~name:"clear cost-identical to store-zero loop" ~count:50
    QCheck.(pair (int_bound 200) (int_bound 900))
    (fun (off, bytes) ->
      let setup () =
        let m = Sim.Memory.create ~with_cache:true () in
        let base = Sim.Memory.map_pages m 2 + (off * 4) in
        (* dirty the range so clearing is observable *)
        for i = 0 to ((bytes + 3) / 4) - 1 do
          Sim.Memory.poke m (base + (i * 4)) 0x55AA55AA
        done;
        (m, base)
      in
      let m1, base1 = setup () in
      for i = 0 to ((bytes + 3) / 4) - 1 do
        Sim.Memory.store m1 (base1 + (i * 4)) 0
      done;
      let m2, base2 = setup () in
      Sim.Memory.clear m2 base2 bytes;
      counters m1 = counters m2
      && Array.for_all Fun.id
           (Array.init ((bytes + 3) / 4) (fun i ->
                Sim.Memory.peek m2 (base2 + (i * 4)) = 0)))

(* Differential check of the cache model.  [Ref] is the cache and
   store buffer written plainly, as separate pieces with a call per
   access and a private cost clock.  Random access streams drive it,
   [Sim.Memory] (the inline path for direct-mapped caches, the LRU
   path otherwise) and a bare [Sim.Cache] in lockstep; every counter
   and the cycle count must agree after every operation. *)

module Ref = struct
  type sb = {
    depth : int;
    buf : int array;
    mutable head : int;
    mutable len : int;
    mutable last_completion : int;
  }

  let advance sb =
    let h = sb.head + 1 in
    sb.head <- (if h = sb.depth then 0 else h);
    sb.len <- sb.len - 1

  let push sb ~now ~latency =
    while sb.len > 0 && sb.buf.(sb.head) <= now do
      advance sb
    done;
    let stall =
      if sb.len >= sb.depth then begin
        let oldest = sb.buf.(sb.head) in
        advance sb;
        oldest - now
      end
      else 0
    in
    let start = max (now + stall) sb.last_completion in
    let completion = start + latency in
    sb.last_completion <- completion;
    let tail = sb.head + sb.len in
    let tail = if tail >= sb.depth then tail - sb.depth else tail in
    sb.buf.(tail) <- completion;
    sb.len <- sb.len + 1;
    stall

  type level = { line_bytes : int; sets : int; ways : int; tags : int array }

  type t = {
    l1 : level;
    l2 : level;
    m : Sim.Machine.t;
    sb : sb;
    mutable instrs : int;
    mutable read_stalls : int;
    mutable write_stalls : int;
    mutable l1_hits : int;
    mutable l1_misses : int;
    mutable l2_misses : int;
    mutable stores : int;
  }

  let level (g : Sim.Machine.cache_geometry) =
    let lines = g.size_bytes / g.line_bytes in
    {
      line_bytes = g.line_bytes;
      sets = lines / g.ways;
      ways = g.ways;
      tags = Array.make lines (-1);
    }

  let create (m : Sim.Machine.t) =
    {
      l1 = level m.l1;
      l2 = level m.l2;
      m;
      sb =
        {
          depth = m.store_buffer_depth;
          buf = Array.make m.store_buffer_depth 0;
          head = 0;
          len = 0;
          last_completion = 0;
        };
      instrs = 0;
      read_stalls = 0;
      write_stalls = 0;
      l1_hits = 0;
      l1_misses = 0;
      l2_misses = 0;
      stores = 0;
    }

  let probe lv addr =
    let line = addr / lv.line_bytes in
    let base = line mod lv.sets * lv.ways in
    let rec find w =
      if w = lv.ways then -1
      else if lv.tags.(base + w) = line then w
      else find (w + 1)
    in
    match find 0 with
    | -1 -> false
    | w ->
        for k = w downto 1 do
          lv.tags.(base + k) <- lv.tags.(base + k - 1)
        done;
        lv.tags.(base) <- line;
        true

  let fill lv addr =
    let line = addr / lv.line_bytes in
    let base = line mod lv.sets * lv.ways in
    for k = lv.ways - 1 downto 1 do
      lv.tags.(base + k) <- lv.tags.(base + k - 1)
    done;
    lv.tags.(base) <- line

  let read t addr =
    t.instrs <- t.instrs + 1;
    if probe t.l1 addr then t.l1_hits <- t.l1_hits + 1
    else begin
      t.l1_misses <- t.l1_misses + 1;
      t.read_stalls <- t.read_stalls + t.m.l1_miss_penalty;
      if not (probe t.l2 addr) then begin
        t.l2_misses <- t.l2_misses + 1;
        t.read_stalls <- t.read_stalls + t.m.l2_miss_penalty;
        fill t.l2 addr
      end;
      fill t.l1 addr
    end

  let write t addr =
    t.instrs <- t.instrs + 1;
    t.stores <- t.stores + 1;
    let now = t.instrs + t.read_stalls + t.write_stalls in
    let hit = probe t.l2 addr in
    if not hit then fill t.l2 addr;
    let latency = if hit then t.m.store_drain_hit else t.m.store_drain_miss in
    t.write_stalls <- t.write_stalls + push t.sb ~now ~latency

  let counters t =
    ( (t.l1_hits, t.l1_misses, t.l2_misses, t.stores),
      (t.read_stalls, t.write_stalls, t.instrs + t.read_stalls + t.write_stalls) )
end

type cache_op =
  | Read of int
  | Write of int
  | Clear of int * int
  | Store_block of int * int
  | Work of int

(* 160 mapped pages (640 KB) exceed the 512 KB L2, so streams see L2
   conflicts as well as L1 ones; half the slots fall in one page to
   get hits too. *)
let diff_pages = 160

let cache_op_gen =
  let open QCheck.Gen in
  let words = diff_pages * 1024 in
  let slot = oneof [ int_bound 1023; int_bound (words - 65) ] in
  frequency
    [
      (4, map (fun s -> Read s) slot);
      (4, map (fun s -> Write s) slot);
      (1, map2 (fun s b -> Clear (s, b)) slot (int_bound 255));
      (1, map2 (fun s n -> Store_block (s, n)) slot (int_bound 64));
      (1, map (fun n -> Work n) (int_bound 20));
    ]

let cache_diff_arb =
  QCheck.make
    ~print:(fun (ways, ops) -> Printf.sprintf "ways=%d, %d ops" ways (List.length ops))
    QCheck.Gen.(pair (oneofl [ 1; 2; 4 ]) (list_size (int_bound 300) cache_op_gen))

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache model matches separate-module reference"
    ~count:60 cache_diff_arb (fun (ways, ops) ->
      let machine = Sim.Machine.with_associativity Sim.Machine.ultrasparc_i ~ways in
      let r = Ref.create machine in
      let m = Sim.Memory.create ~machine ~with_cache:true () in
      let base = Sim.Memory.map_pages m diff_pages in
      let mc = Sim.Memory.cost m in
      let bc = Sim.Cost.create () in
      let bare = Sim.Cache.create machine bc in
      let observed c ca =
        ( (Sim.Cache.l1_hits ca, Sim.Cache.l1_misses ca, Sim.Cache.l2_misses ca,
           Sim.Cache.stores ca),
          (Sim.Cost.read_stall_cycles c, Sim.Cost.write_stall_cycles c,
           Sim.Cost.cycles c) )
      in
      let words n f = for i = 0 to n - 1 do f i done in
      List.for_all
        (fun op ->
          (match op with
          | Read s ->
              let a = base + (s * 4) in
              Ref.read r a;
              ignore (Sim.Memory.load m a);
              Sim.Cost.instr bc 1;
              Sim.Cache.read bare a
          | Write s ->
              let a = base + (s * 4) in
              Ref.write r a;
              Sim.Memory.store m a s;
              Sim.Cost.instr bc 1;
              Sim.Cache.write bare a
          | Clear (s, bytes) ->
              let a = base + (s * 4) in
              words ((bytes + 3) / 4) (fun i ->
                  Ref.write r (a + (i * 4));
                  Sim.Cost.instr bc 1;
                  Sim.Cache.write bare (a + (i * 4)));
              Sim.Memory.clear m a bytes
          | Store_block (s, n) ->
              let a = base + (s * 4) in
              words n (fun i ->
                  Ref.write r (a + (i * 4));
                  Sim.Cost.instr bc 1;
                  Sim.Cache.write bare (a + (i * 4)));
              Sim.Memory.store_block m a (Array.make n 7)
          | Work n ->
              r.Ref.instrs <- r.Ref.instrs + n;
              Sim.Cost.instr mc n;
              Sim.Cost.instr bc n);
          let want = Ref.counters r in
          want = observed mc (Option.get (Sim.Memory.cache m))
          && want = observed bc bare)
        ops)

(* Fault injection at the page-map level: a denied request raises and
   mutates nothing — the next granted mapping lands exactly where it
   would have without the denial. *)
let test_memory_oom_hook () =
  let m = fresh () in
  let a1 = Sim.Memory.map_pages m 1 in
  Sim.Memory.set_oom_hook m (Some (fun _ -> false));
  (match Sim.Memory.map_pages m 1 with
  | _ -> Alcotest.fail "expected Fault from denied mapping"
  | exception Sim.Memory.Fault _ -> ());
  Sim.Memory.set_oom_hook m None;
  let a2 = Sim.Memory.map_pages m 1 in
  check "denied mapping consumed no address space" (a1 + 4096) a2;
  (* A budgeted hook grants until the budget runs out. *)
  let budget = ref 2 in
  Sim.Memory.set_oom_hook m
    (Some
       (fun n ->
         budget := !budget - n;
         !budget >= 0));
  ignore (Sim.Memory.map_pages m 1);
  ignore (Sim.Memory.map_pages m 1);
  match Sim.Memory.map_pages m 1 with
  | _ -> Alcotest.fail "expected Fault once budget exhausted"
  | exception Sim.Memory.Fault _ -> ()

(* [find_nonzero] vs a [load] loop that stops at the first nonzero
   word: same index, same charges, same cache traffic, and the same
   fault when the scan runs off the mapped range (or starts
   unaligned).  [ways = 0] runs with the cache model off. *)
let scan_arb =
  QCheck.make
    ~print:(fun (ways, warm, nz, (off, n)) ->
      Printf.sprintf "ways=%d warm=%d nonzero=[%s] off=%d n=%d" ways
        (List.length warm)
        (String.concat ";" (List.map string_of_int nz))
        off n)
    QCheck.Gen.(
      quad (oneofl [ 0; 1; 2; 4 ])
        (list_size (int_bound 40) (int_bound 2047))
        (list_size (int_bound 4) (int_bound 2047))
        (pair
           (frequency
              [ (1, return (-1)); (4, int_bound 2047); (3, int_range 1800 2047) ])
           (int_bound 300)))

let prop_find_nonzero_matches_loads =
  QCheck.Test.make ~name:"find_nonzero cost-identical to a load loop"
    ~count:300 scan_arb (fun (ways, warm, nz, (off, n)) ->
      let setup () =
        let machine =
          Sim.Machine.with_associativity Sim.Machine.ultrasparc_i
            ~ways:(max ways 1)
        in
        let m = Sim.Memory.create ~machine ~with_cache:(ways > 0) () in
        (* Two pages: a scan from near the end runs off the mapped range. *)
        let base = Sim.Memory.map_pages m 2 in
        List.iter (fun w -> Sim.Memory.poke m (base + (w * 4)) (w + 1)) nz;
        List.iter (fun w -> ignore (Sim.Memory.load m (base + (w * 4)))) warm;
        (* [off = -1] starts the scan unaligned. *)
        (m, if off < 0 then base + 2 else base + (off * 4))
      in
      let observed m =
        let c = Sim.Memory.cost m in
        let cache =
          match Sim.Memory.cache m with
          | Some ca ->
              ( Sim.Cache.l1_hits ca,
                Sim.Cache.l1_misses ca,
                Sim.Cache.l2_misses ca,
                Sim.Cache.stores ca )
          | None -> (0, 0, 0, 0)
        in
        ( cache,
          ( Sim.Cost.total_instrs c,
            Sim.Cost.read_stall_cycles c,
            Sim.Cost.write_stall_cycles c,
            Sim.Cost.cycles c ) )
      in
      let outcome f =
        match f () with i -> Ok i | exception Sim.Memory.Fault _ -> Error ()
      in
      let m1, a1 = setup () in
      let r1 =
        outcome (fun () ->
            let i = ref 0 in
            while !i < n && Sim.Memory.load m1 (a1 + (!i * 4)) = 0 do
              incr i
            done;
            !i)
      in
      let m2, a2 = setup () in
      let r2 = outcome (fun () -> Sim.Memory.find_nonzero m2 a2 n) in
      r1 = r2 && observed m1 = observed m2)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sim"
    [
      ("machine", [ tc "rounding" `Quick test_machine_rounding ]);
      ( "rng",
        [
          tc "deterministic" `Quick test_rng_deterministic;
          tc "bounds" `Quick test_rng_bounds;
          tc "spread" `Quick test_rng_spread;
        ] );
      ( "cost",
        [
          tc "contexts" `Quick test_cost_contexts;
          tc "context restored on exception" `Quick
            test_cost_context_restored_on_exception;
          tc "within" `Quick test_cost_within;
          tc "nesting" `Quick test_cost_nesting;
          tc "cycles" `Quick test_cost_cycles;
        ] );
      ( "memory",
        [
          tc "map pages" `Quick test_memory_map_pages;
          tc "roundtrip" `Quick test_memory_roundtrip;
          tc "faults" `Quick test_memory_faults;
          tc "clear" `Quick test_memory_clear;
          tc "costs charged" `Quick test_memory_costs_charged;
          tc "growth" `Quick test_memory_growth;
          tc "store_bytes" `Quick test_memory_store_bytes;
          tc "block roundtrip" `Quick test_memory_block_roundtrip;
          tc "block faults" `Quick test_memory_block_faults;
          tc "oom hook" `Quick test_memory_oom_hook;
          tc "store buffer wraparound" `Quick test_store_buffer_wraparound;
        ] );
      ( "properties",
        [
          qtest prop_cache_deterministic;
          qtest prop_ring_matches_queue;
          qtest prop_ring_wraparound_matches_queue;
          qtest prop_ring_drain_order;
          qtest prop_block_ops_match_loops;
          qtest prop_store_bytes_matches_loop;
          qtest prop_clear_matches_store_loop;
          qtest prop_cache_matches_reference;
          qtest prop_find_nonzero_matches_loads;
        ] );
      ( "cache",
        [
          tc "read hit/miss" `Quick test_cache_read_hit_miss;
          tc "conflict" `Quick test_cache_conflict;
          tc "read stalls charged" `Quick test_cache_read_stalls_charged;
          tc "write stalls" `Quick test_cache_write_stalls;
          tc "sequential vs strided" `Quick test_cache_sequential_vs_strided;
          tc "associativity absorbs conflicts" `Quick
            test_cache_associativity_absorbs_conflicts;
          tc "LRU within a set" `Quick test_cache_lru_within_set;
        ] );
    ]
