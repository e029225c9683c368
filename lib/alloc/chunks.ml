type t = {
  mem : Sim.Memory.t;
  stats : Stats.t;
  min_extend_pages : int;
  policy : policy;
  mutable seg_end : int;  (* one past the end of the last segment; 0 if none *)
  mutable segments : (int * int) list;  (* (start, end), newest first *)
}

and policy = {
  insert : t -> int -> unit;
  unlink : t -> int -> unit;
  find : t -> int -> int;
}

let cinuse = 1
let pinuse = 2
let min_chunk = 16
let round8 n = (n + 7) land lnot 7

let create mem stats ~min_extend_pages make_policy =
  let static_area = Sim.Memory.map_pages mem 1 in
  Stats.on_map stats 4096;
  {
    mem;
    stats;
    min_extend_pages;
    policy = make_policy ~static_area;
    seg_end = 0;
    segments = [];
  }

let memory t = t.mem
let[@inline] hdr t c = Sim.Memory.load t.mem c
let[@inline] set_hdr t c v = Sim.Memory.store t.mem c v
let size_of h = h land lnot 7
let[@inline] chunk_size t c = size_of (hdr t c)
let[@inline] set_footer t c size = Sim.Memory.store t.mem (c + size - 4) size

(* ------------------------------------------------------------------ *)
(* Free-list helpers for policies *)

let list_head t ~head_addr = Sim.Memory.load t.mem head_addr
let[@inline] list_next t c = Sim.Memory.load t.mem (c + 4)

let list_push t ~head_addr c =
  let head = Sim.Memory.load t.mem head_addr in
  Sim.Memory.store t.mem (c + 4) head;
  Sim.Memory.store t.mem (c + 8) 0;
  if head <> 0 then Sim.Memory.store t.mem (head + 8) c;
  Sim.Memory.store t.mem head_addr c

let list_remove t ~head_addr c =
  let next = Sim.Memory.load t.mem (c + 4) in
  let prev = Sim.Memory.load t.mem (c + 8) in
  if prev = 0 then Sim.Memory.store t.mem head_addr next
  else Sim.Memory.store t.mem (prev + 4) next;
  if next <> 0 then Sim.Memory.store t.mem (next + 8) prev

(* ------------------------------------------------------------------ *)
(* Heap growth *)

let page_bytes t = (Sim.Memory.machine t.mem).Sim.Machine.page_bytes

(* Release a chunk whose header flags are not yet set: coalesce with
   free neighbours on both sides, write header/footer, clear the next
   chunk's prev-in-use bit, and hand it to the policy. *)
let release t chunk csize ~prev_free =
  let chunk, csize =
    if prev_free then begin
      let psize = Sim.Memory.load t.mem (chunk - 4) in
      let p = chunk - psize in
      t.policy.unlink t p;
      (p, csize + psize)
    end
    else (chunk, csize)
  in
  let csize =
    let next = chunk + csize in
    let nh = hdr t next in
    if nh land cinuse = 0 then begin
      t.policy.unlink t next;
      csize + size_of nh
    end
    else csize
  in
  set_hdr t chunk (csize lor pinuse);
  set_footer t chunk csize;
  let next = chunk + csize in
  set_hdr t next (hdr t next land lnot pinuse);
  t.policy.insert t chunk

let extend t need =
  let page = page_bytes t in
  let pages = max t.min_extend_pages ((need + 8 + page - 1) / page) in
  let addr = Sim.Memory.map_pages t.mem pages in
  Stats.on_map t.stats (pages * page);
  Sim.Cost.instr (Sim.Memory.cost t.mem) 20 (* OS call overhead *);
  let adjacent = t.seg_end <> 0 && t.seg_end = addr in
  let chunk, csize, prev_free =
    if adjacent then begin
      (* The old sentinel becomes the start of the new free chunk. *)
      let sentinel = addr - 8 in
      let prev_free = hdr t sentinel land pinuse = 0 in
      (sentinel, pages * page, prev_free)
    end
    else (addr, (pages * page) - 8, false)
  in
  let sentinel = chunk + csize in
  set_hdr t sentinel (8 lor cinuse);
  (match (adjacent, t.segments) with
  | true, (s, _) :: rest -> t.segments <- (s, addr + (pages * page)) :: rest
  | true, [] -> assert false
  | false, segs -> t.segments <- (addr, addr + (pages * page)) :: segs);
  t.seg_end <- addr + (pages * page);
  release t chunk csize ~prev_free

(* ------------------------------------------------------------------ *)
(* malloc / free *)

(* [malloc] and [free] run their body under [Sim.Cost.within], not
   [with_context]: a closure per call would be the host's biggest
   per-operation cost. *)

let malloc_body t size =
  Sim.Cost.instr (Sim.Memory.cost t.mem) 6;
  let csize = round8 (size + 4) in
  let csize = if csize < min_chunk then min_chunk else csize in
  let chunk =
    let c = t.policy.find t csize in
    if c <> 0 then c
    else begin
      extend t csize;
      let c = t.policy.find t csize in
      assert (c <> 0);
      c
    end
  in
  let fsize = chunk_size t chunk in
  let pin = hdr t chunk land pinuse in
  if fsize - csize >= min_chunk then begin
    (* Split: the remainder stays free. *)
    let rem = chunk + csize in
    set_hdr t rem ((fsize - csize) lor pinuse);
    set_footer t rem (fsize - csize);
    t.policy.insert t rem;
    set_hdr t chunk (csize lor cinuse lor pin)
  end
  else begin
    set_hdr t chunk (fsize lor cinuse lor pin);
    let next = chunk + fsize in
    set_hdr t next (hdr t next lor pinuse)
  end;
  let user = chunk + 4 in
  Stats.on_alloc t.stats ~addr:user ~size;
  user

let malloc t size =
  Allocator.check_size size;
  Sim.Cost.within (Sim.Memory.cost t.mem) Sim.Cost.Alloc malloc_body t size

let free_body t user =
  Sim.Cost.instr (Sim.Memory.cost t.mem) 6;
  if user land 3 <> 0 || not (Sim.Memory.is_mapped t.mem (user - 4)) then
    raise (Allocator.Invalid_free user);
  let c = user - 4 in
  let h = hdr t c in
  if h land cinuse = 0 then raise (Allocator.Invalid_free user);
  Stats.on_free t.stats user;
  release t c (size_of h) ~prev_free:(h land pinuse = 0)

let free t user =
  Sim.Cost.within (Sim.Memory.cost t.mem) Sim.Cost.Alloc free_body t user

(* Introspection, not allocation work: reads the header with a
   cost-free peek (like [check_invariants]) so callers — tests, the
   fuzzer, the replay timeline's fragmentation probe — never perturb
   simulated counts. *)
let usable_size t user = size_of (Sim.Memory.peek t.mem (user - 4)) - 4

(* ------------------------------------------------------------------ *)
(* Invariant checking: the [check_heap] of every chunk-heap allocator
   (and of the sanitizer / differential fuzzer in [Check]).  Uses
   cost-free peeks only, so simulated counts are untouched. *)

let check_invariants t =
  let peek = Sim.Memory.peek t.mem in
  let fail fmt = Fmt.kstr failwith fmt in
  let check_segment (start, stop) =
    let rec walk c prev_was_free first =
      if c > stop - 8 then fail "chunk at %#x overruns segment end %#x" c stop
      else begin
        let h = peek c in
        let size = size_of h in
        let in_use = h land cinuse <> 0 in
        let pin = h land pinuse <> 0 in
        if first && not pin then fail "first chunk at %#x has prev-in-use unset" c;
        if (not first) && pin = prev_was_free then
          fail "prev-in-use bit wrong at %#x" c;
        if c = stop - 8 then begin
          if not in_use then fail "sentinel at %#x not in use" c
        end
        else begin
          if size < min_chunk || size land 7 <> 0 then
            fail "bad chunk size %d at %#x" size c;
          if not in_use then begin
            if peek (c + size - 4) <> size then fail "footer mismatch at %#x" c;
            if prev_was_free && not first then
              fail "two adjacent free chunks at %#x" c
          end;
          walk (c + size) (not in_use) false
        end
      end
    in
    walk start false true
  in
  List.iter check_segment t.segments
