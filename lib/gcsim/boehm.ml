let page_bytes = 4096
let max_small = 512
let num_classes = max_small / 16 (* 16, 32, ..., 512 *)
let class_of_size size = ((size + 15) / 16) - 1
let class_bytes cls = (cls + 1) * 16

type small_block = {
  s_addr : int;
  s_class : int;  (* object size in bytes *)
  s_nobj : int;
  s_alloc : Bytes.t;  (* bitsets *)
  s_mark : Bytes.t;
}

type large_block = {
  l_addr : int;
  l_pages : int;
  mutable l_bytes : int;  (* user size, rounded to a word *)
  mutable l_allocated : bool;
  mutable l_marked : bool;
}

type block = Small of small_block | Large of large_block

type t = {
  mem : Sim.Memory.t;
  stats : Alloc.Stats.t;
  blocks : (int, block) Hashtbl.t;
      (* page number -> block, for the mark-clear and sweep iterations
         only: its iteration order decides the order in which swept
         objects are pushed on the free lists, which the golden results
         pin.  Lookups go through [pages]. *)
  mutable pages : block option array;  (* page number -> block, flat *)
  freelists : int array;  (* per class; links threaded through the heap *)
  mutable free_large : (int * large_block) list;  (* pages, block *)
  mutable heap_bytes : int;
  mutable heap_at_gc : int;  (* heap size when the last collection finished *)
  mutable since_gc : int;
  trigger_min : int;
  fraction : float;
  roots : (int -> unit) -> unit;
  mutable collections : int;
  mutable live_last : int;
}

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let bit_clear b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) land lnot (1 lsl (i land 7))))

let cost t = Sim.Memory.cost t.mem

(* ------------------------------------------------------------------ *)
(* Page map *)

let[@inline] block_at t pageno =
  if pageno < Array.length t.pages then Array.unsafe_get t.pages pageno
  else None

let add_block t pageno entry blk =
  let n = Array.length t.pages in
  if pageno >= n then begin
    let bigger = Array.make (max (2 * n) (pageno + 1)) None in
    Array.blit t.pages 0 bigger 0 n;
    t.pages <- bigger
  end;
  t.pages.(pageno) <- entry;
  Hashtbl.replace t.blocks pageno blk

(* ------------------------------------------------------------------ *)
(* Block management *)

let carve_small t cls =
  let csize = class_bytes cls in
  Sim.Cost.instr (cost t) 20 (* OS call overhead *);
  let addr = Sim.Memory.map_pages t.mem 1 in
  Alloc.Stats.on_map t.stats page_bytes;
  t.heap_bytes <- t.heap_bytes + page_bytes;
  let nobj = page_bytes / csize in
  let bits () = Bytes.make ((nobj + 7) / 8) '\000' in
  let blk =
    Small
      {
        s_addr = addr;
        s_class = csize;
        s_nobj = nobj;
        s_alloc = bits ();
        s_mark = bits ();
      }
  in
  add_block t (addr lsr 12) (Some blk) blk;
  (* Thread the fresh objects onto the class free list. *)
  for i = nobj - 1 downto 0 do
    let o = addr + (i * csize) in
    Sim.Memory.store t.mem o t.freelists.(cls);
    t.freelists.(cls) <- o
  done

let large_pages size = ((size + 3) / 4 * 4 + page_bytes - 1) / page_bytes

(* Smallest free block that fits, exact fits first.  The real
   collector serves a big-object request from any sufficiently large
   free hblk, splitting off the remainder; the simulator allocates
   into the larger block whole (its pages stay accounted to the block,
   so nothing is lost — the next free returns them all).  Insisting on
   an exact page-count match instead strands the mismatched part of
   the free stock while fresh pages are mapped for the rest: an
   unbounded, compounding heap leak on any large-object mix. *)
let find_large t pages =
  List.fold_left
    (fun acc ((p, _) as e) ->
      if p < pages then acc
      else match acc with Some (bp, _) when bp <= p -> acc | _ -> Some e)
    None t.free_large

let take_large t size ((_, blk) as e) =
  Sim.Cost.instr (cost t) 8;
  t.free_large <- List.filter (fun e' -> e' != e) t.free_large;
  blk.l_allocated <- true;
  blk.l_marked <- false;
  blk.l_bytes <- (size + 3) land lnot 3;
  blk

let map_large t size pages =
  Sim.Cost.instr (cost t) 20;
  let addr = Sim.Memory.map_pages t.mem pages in
  Alloc.Stats.on_map t.stats (pages * page_bytes);
  t.heap_bytes <- t.heap_bytes + (pages * page_bytes);
  let blk =
    {
      l_addr = addr;
      l_pages = pages;
      l_bytes = (size + 3) land lnot 3;
      l_allocated = true;
      l_marked = false;
    }
  in
  let large = Large blk in
  let entry = Some large in
  for i = 0 to pages - 1 do
    add_block t ((addr lsr 12) + i) entry large
  done;
  blk

(* ------------------------------------------------------------------ *)
(* Collection *)

let collect_into t =
  t.collections <- t.collections + 1;
  let c = cost t in
  Obs.Tracer.gc_begin (Sim.Memory.tracer t.mem) ~ordinal:t.collections;
  (* Clear marks. *)
  Hashtbl.iter
    (fun pageno blk ->
      match blk with
      | Small b ->
          if pageno = b.s_addr lsr 12 then
            Bytes.fill b.s_mark 0 (Bytes.length b.s_mark) '\000'
      | Large b -> if pageno = b.l_addr lsr 12 then b.l_marked <- false)
    t.blocks;
  Sim.Cost.instr c (Hashtbl.length t.blocks);
  let stack = ref [] in
  (* Conservative pointer test: any word reaching into an allocated
     object (interior pointers included) pins that object. *)
  let try_mark v =
    Sim.Cost.instr c 2;
    if v land 3 = 0 && v > 0 then
      match block_at t (v lsr 12) with
      | Some (Small b) ->
          let off = v - b.s_addr in
          if off >= 0 && off < b.s_nobj * b.s_class then begin
            let idx = off / b.s_class in
            if bit_get b.s_alloc idx && not (bit_get b.s_mark idx) then begin
              bit_set b.s_mark idx;
              stack := (b.s_addr + (idx * b.s_class), b.s_class) :: !stack
            end
          end
      | Some (Large b) ->
          if b.l_allocated && not b.l_marked then begin
            b.l_marked <- true;
            stack := (b.l_addr, b.l_bytes) :: !stack
          end
      | None -> ()
  in
  t.roots try_mark;
  (* Transitive marking: scan every word of every reached object. *)
  let rec drain () =
    match !stack with
    | [] -> ()
    | (addr, bytes) :: rest ->
        stack := rest;
        for i = 0 to (bytes / 4) - 1 do
          try_mark (Sim.Memory.load t.mem (addr + (i * 4)))
        done;
        drain ()
  in
  drain ();
  (* Sweep. *)
  let live = ref 0 in
  Hashtbl.iter
    (fun pageno blk ->
      match blk with
      | Small b when pageno = b.s_addr lsr 12 ->
          let cls = class_of_size b.s_class in
          for idx = 0 to b.s_nobj - 1 do
            Sim.Cost.instr c 1;
            if bit_get b.s_alloc idx then
              if bit_get b.s_mark idx then live := !live + b.s_class
              else begin
                let o = b.s_addr + (idx * b.s_class) in
                bit_clear b.s_alloc idx;
                Alloc.Stats.on_free t.stats o;
                Sim.Memory.store t.mem o t.freelists.(cls);
                t.freelists.(cls) <- o
              end
          done
      | Small _ -> ()
      | Large b when pageno = b.l_addr lsr 12 ->
          Sim.Cost.instr c 2;
          if b.l_allocated then
            if b.l_marked then live := !live + b.l_bytes
            else begin
              b.l_allocated <- false;
              Alloc.Stats.on_free t.stats b.l_addr;
              t.free_large <- (b.l_pages, b) :: t.free_large
            end
      | Large _ -> ())
    t.blocks;
  t.live_last <- !live;
  t.heap_at_gc <- t.heap_bytes;
  t.since_gc <- 0;
  Obs.Tracer.gc_end (Sim.Memory.tracer t.mem) ~live_bytes:!live

let collect t =
  Sim.Cost.with_context (cost t) Sim.Cost.Alloc (fun () -> collect_into t)

(* ------------------------------------------------------------------ *)
(* Allocation *)

(* The trigger is sized off the heap as of the *last* collection, as
   in the real collector (GC_collect_at_heapsize is set when a
   collection finishes).  Sizing it off the current heap looks
   equivalent but is not: when reclaim fails to keep up and the heap
   expands between collections, a current-heap threshold rises in
   lockstep with [since_gc] and is never crossed again — no
   collection, so no reuse, so further expansion, terminally.  An
   allocation-heavy trace with a tiny live set (any generated
   high-churn column) runs the heap to simulated-memory exhaustion
   under that feedback loop. *)
let maybe_gc t =
  let threshold =
    Int.max t.trigger_min (int_of_float (t.fraction *. float_of_int t.heap_at_gc))
  in
  if t.since_gc > threshold then collect_into t

(* The body runs under [Sim.Cost.within], not [with_context], so no
   closure is built per allocation. *)
let malloc_body t size =
  Sim.Cost.instr (cost t) 6;
  maybe_gc t;
  (* Collect-before-expand, as in the real collector: a free-list or
     free-block miss first tries a collection (if enough has been
     allocated since the last one to plausibly help) and maps fresh
     pages only if the miss persists.  Expanding directly on a miss
     lets the heap — and with it the collection threshold — ratchet
     upward under churn that a collection would have absorbed, so the
     heap of a high-churn program never stops growing. *)
  let user =
    if size <= max_small then begin
      let cls = class_of_size size in
      if t.freelists.(cls) = 0 && t.since_gc > t.trigger_min then
        collect_into t;
      if t.freelists.(cls) = 0 then carve_small t cls;
      let o = t.freelists.(cls) in
      t.freelists.(cls) <- Sim.Memory.load t.mem o;
      (match block_at t (o lsr 12) with
      | Some (Small b) -> bit_set b.s_alloc ((o - b.s_addr) / b.s_class)
      | Some (Large _) | None -> assert false);
      (* GC_malloc returns zeroed storage. *)
      Sim.Memory.clear t.mem o (class_bytes cls);
      t.since_gc <- t.since_gc + class_bytes cls;
      o
    end
    else begin
      let pages = large_pages size in
      let blk =
        match find_large t pages with
        | Some e -> take_large t size e
        | None ->
            if t.since_gc > t.trigger_min then collect_into t;
            (match find_large t pages with
            | Some e -> take_large t size e
            | None -> map_large t size pages)
      in
      Sim.Memory.clear t.mem blk.l_addr blk.l_bytes;
      t.since_gc <- t.since_gc + blk.l_bytes;
      blk.l_addr
    end
  in
  Alloc.Stats.on_alloc t.stats ~addr:user ~size;
  user

let malloc t size =
  Alloc.Allocator.check_size size;
  Sim.Cost.within (cost t) Sim.Cost.Alloc malloc_body t size

let usable_size t user =
  match block_at t (user lsr 12) with
  | Some (Small b) -> b.s_class
  | Some (Large b) -> b.l_bytes
  | None -> 0

let is_live t addr =
  match block_at t (addr lsr 12) with
  | Some (Small b) ->
      let off = addr - b.s_addr in
      off >= 0
      && off < b.s_nobj * b.s_class
      && bit_get b.s_alloc (off / b.s_class)
  | Some (Large b) -> b.l_allocated
  | None -> false

let collections t = t.collections
let heap_bytes t = t.heap_bytes
let live_bytes_last_gc t = t.live_last

(* Invariant checking (cost-free peeks): every class free list must
   thread through unallocated, correctly aligned slots of blocks of
   that exact class, without cycles; large blocks on the free list
   must not be marked allocated. *)
let check_heap t () =
  let fail fmt = Fmt.kstr failwith fmt in
  let peek = Sim.Memory.peek t.mem in
  Array.iteri
    (fun cls head ->
      let csize = class_bytes cls in
      let seen = Hashtbl.create 16 in
      let rec walk o =
        if o <> 0 then begin
          if Hashtbl.mem seen o then
            fail "gc: class-%d free list cycles at %#x" csize o;
          Hashtbl.add seen o ();
          (match block_at t (o lsr 12) with
          | Some (Small b) ->
              if b.s_class <> csize then
                fail "gc: free object %#x of class %d on the class-%d list"
                  o b.s_class csize;
              let off = o - b.s_addr in
              if off < 0 || off >= b.s_nobj * csize || off mod csize <> 0 then
                fail "gc: free object %#x misaligned in its block" o;
              if bit_get b.s_alloc (off / csize) then
                fail "gc: object %#x is both allocated and free-listed" o
          | Some (Large _) | None ->
              fail "gc: class-%d free list entry %#x outside a small block"
                csize o);
          walk (peek o)
        end
      in
      walk head)
    t.freelists;
  List.iter
    (fun (_, b) ->
      if b.l_allocated then
        fail "gc: large block %#x on the free list but marked allocated"
          b.l_addr)
    t.free_large

let create ?(trigger_min_bytes = 128 * 1024) ?(heap_fraction = 0.5) ~roots mem =
  let t =
    {
      mem;
      stats = Alloc.Stats.create ();
      blocks = Hashtbl.create 256;
      pages = Array.make 256 None;
      freelists = Array.make num_classes 0;
      free_large = [];
      heap_bytes = 0;
      heap_at_gc = 0;
      since_gc = 0;
      trigger_min = trigger_min_bytes;
      fraction = heap_fraction;
      roots;
      collections = 0;
      live_last = 0;
    }
  in
  let allocator =
    {
      Alloc.Allocator.name = "gc";
      memory = mem;
      malloc = malloc t;
      free = (fun _ -> () (* frees disabled under the collector *));
      usable_size = usable_size t;
      check_heap = check_heap t;
      stats = t.stats;
    }
  in
  (allocator, t)
