(* Chunk layout: one header word holding the bucket index, tagged with
   [in_use_tag] while allocated; the freelist next pointer reuses the
   first user word.  Bucket b holds chunks of 2^b total bytes. *)

let min_bucket = 4 (* 16 bytes *)
let max_bucket = 28
let in_use_tag = 0x100

(* Smallest b >= [b] with 2^b >= [need]. *)
let rec bucket_from need b = if 1 lsl b >= need then b else bucket_from need (b + 1)

(* Smallest b with 2^b >= size + 4 (header), at least 16 bytes. *)
let bucket_for size = bucket_from (size + 4) min_bucket

type t = {
  mem : Sim.Memory.t;
  stats : Stats.t;
  heads : int;  (* static page: word per bucket *)
}

let head_addr t b = t.heads + (b * 4)

let carve t b =
  let page = (Sim.Memory.machine t.mem).Sim.Machine.page_bytes in
  let csize = 1 lsl b in
  let bytes = max csize page in
  let pages = bytes / page in
  let addr = Sim.Memory.map_pages t.mem pages in
  Stats.on_map t.stats (pages * page);
  Sim.Cost.instr (Sim.Memory.cost t.mem) 20 (* OS call overhead *);
  (* Thread the fresh chunks onto the bucket's free list. *)
  let head = head_addr t b in
  let n = bytes / csize in
  for i = n - 1 downto 0 do
    let c = addr + (i * csize) in
    Sim.Memory.store t.mem c b;
    Sim.Memory.store t.mem (c + 4) (Sim.Memory.load t.mem head);
    Sim.Memory.store t.mem head c
  done

(* As in [Chunks], the bodies run under [Sim.Cost.within] so that no
   closure is built per call. *)

let malloc_body t size =
  Sim.Cost.instr (Sim.Memory.cost t.mem) 5;
  let b = bucket_for size in
  if b > max_bucket then invalid_arg "Bsd.malloc: size too large";
  let head = head_addr t b in
  if Sim.Memory.load t.mem head = 0 then carve t b;
  let c = Sim.Memory.load t.mem head in
  Sim.Memory.store t.mem head (Sim.Memory.load t.mem (c + 4));
  Sim.Memory.store t.mem c (b lor in_use_tag);
  let user = c + 4 in
  Stats.on_alloc t.stats ~addr:user ~size;
  user

let malloc t size =
  Allocator.check_size size;
  Sim.Cost.within (Sim.Memory.cost t.mem) Sim.Cost.Alloc malloc_body t size

let free_body t user =
  Sim.Cost.instr (Sim.Memory.cost t.mem) 4;
  if user land 3 <> 0 || not (Sim.Memory.is_mapped t.mem (user - 4)) then
    raise (Allocator.Invalid_free user);
  let c = user - 4 in
  let h = Sim.Memory.load t.mem c in
  let b = h land lnot in_use_tag in
  if h land in_use_tag = 0 || b < min_bucket || b > max_bucket then
    raise (Allocator.Invalid_free user);
  Stats.on_free t.stats user;
  let head = head_addr t b in
  Sim.Memory.store t.mem c b;
  Sim.Memory.store t.mem (c + 4) (Sim.Memory.load t.mem head);
  Sim.Memory.store t.mem head c

let free t user =
  Sim.Cost.within (Sim.Memory.cost t.mem) Sim.Cost.Alloc free_body t user

(* Introspection, not allocation work: a cost-free peek (the
   [check_invariants] idiom), so tests and the replay timeline's
   fragmentation probe never perturb simulated counts. *)
let usable_size t user =
  let b = Sim.Memory.peek t.mem (user - 4) land lnot in_use_tag in
  (1 lsl b) - 4

(* Invariant checking (cost-free peeks): every chunk on a bucket's
   free list must be word-aligned, mapped, carry exactly that bucket's
   index in its header (no in-use tag), and appear on one list once —
   a shared or cyclic list is how a corrupted header manifests. *)
let check_heap t () =
  let peek = Sim.Memory.peek t.mem in
  let fail fmt = Fmt.kstr failwith fmt in
  let seen = Hashtbl.create 256 in
  for b = min_bucket to max_bucket do
    let rec walk c =
      if c <> 0 then begin
        if c land 3 <> 0 then fail "bucket %d: misaligned free chunk %#x" b c;
        if not (Sim.Memory.is_mapped t.mem c) then
          fail "bucket %d: unmapped free chunk %#x" b c;
        (match Hashtbl.find_opt seen c with
        | Some b' ->
            fail "free chunk %#x on bucket %d is already on bucket %d \
                  (duplicate or cycle)" c b b'
        | None -> Hashtbl.add seen c b);
        let h = peek c in
        if h <> b then
          fail "free chunk %#x in bucket %d has header %#x (expected %d)" c b h b;
        walk (peek (c + 4))
      end
    in
    walk (peek (head_addr t b))
  done

let create mem =
  let stats = Stats.create () in
  let heads = Sim.Memory.map_pages mem 1 in
  Stats.on_map stats 4096;
  let t = { mem; stats; heads } in
  {
    Allocator.name = "bsd";
    memory = mem;
    malloc = malloc t;
    free = free t;
    usable_size = usable_size t;
    check_heap = check_heap t;
    stats;
  }
