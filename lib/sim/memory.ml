(* The cache and store-buffer model of Figure 10, and the simulated
   memory that runs it on every access.  The model's code lives in this
   unit ([Cache] re-exports the cache half) so that no access makes a
   call into it (DESIGN §5h).

   For the UltraSparc geometry (both levels direct-mapped, power-of-two
   lines and sets) [t] carries the probe flat: the two tag arrays
   (the same arrays [Cache_impl]'s levels own), the line shifts, the
   set masks and the miss penalties, so a probe is one load from [t]
   and one from the tags.  The hit and miss counters stay in
   [Cache_impl.t], off that chain.  [load], [store] and [load_byte]
   carry [@inline], so with the default (non-opaque) build every
   caller, the workloads included, runs check, charge, probe and host
   access with no call.  The set-associative what-if geometries take
   one [@inline never] function per access kind, which probes and
   does the host access.

   A cold branch either raises or rejoins with only its result: a
   failed check raises [Fault] at its own site, with the message built
   by a helper that returns it, and the LRU branch returns the
   access's result.  Without flambda, a value live across a call is
   kept in a stack slot, spilled before the branch rather than on the
   cold side alone, so a cold call that returned into the access would
   cost the hot path its spills and reloads (DESIGN §5h).

   After [check_word] or [check_byte] has bounded an address by
   [limit], the host bytes are read and written unchecked: [limit <=
   Bytes.length data] always holds ([create] and [ensure_capacity]
   keep it) and [page_bytes] is a multiple of the word, so a mapped
   word lies wholly below [limit]. *)

module Store_buffer_impl = struct
  type t = {
    depth : int;
    buf : int array;  (* circular buffer of completion cycles *)
    mutable head : int;  (* index of the oldest outstanding store *)
    mutable len : int;
    mutable last_completion : int;
  }

  let create ~depth =
    if depth <= 0 then invalid_arg "Store_buffer_impl.create: depth must be positive";
    { depth; buf = Array.make depth 0; head = 0; len = 0; last_completion = 0 }

  let length t = t.len
  let last_completion t = t.last_completion

  let[@inline] advance t =
    let h = t.head + 1 in
    t.head <- (if h = t.depth then 0 else h);
    t.len <- t.len - 1

  (* [head] and [tail] are always below [depth], the length of [buf],
     so the ring is indexed unchecked. *)
  let[@inline] push t ~now ~latency =
    (* Retire completed stores. *)
    while t.len > 0 && Array.unsafe_get t.buf t.head <= now do
      advance t
    done;
    let stall =
      if t.len >= t.depth then begin
        (* Buffer full: stall until the oldest entry retires. *)
        let oldest = Array.unsafe_get t.buf t.head in
        advance t;
        oldest - now
      end
      else 0
    in
    (* Stores drain in order: this one starts once the stall (if any)
       is paid and the previous store has completed.  (Not [max]: that
       is a call to the polymorphic compare.) *)
    let start =
      let ready = now + stall in
      if ready >= t.last_completion then ready else t.last_completion
    in
    let completion = start + latency in
    t.last_completion <- completion;
    let tail = t.head + t.len in
    let tail = if tail >= t.depth then tail - t.depth else tail in
    Array.unsafe_set t.buf tail completion;
    t.len <- t.len + 1;
    stall
end

module Cache_impl = struct
  type level = {
    line_bytes : int;
    sets : int;
    ways : int;
    line_shift : int;  (* log2 line_bytes when a power of two, else -1 *)
    set_mask : int;  (* sets - 1 when sets is a power of two, else -1 *)
    tags : int array;  (* [set * ways + way] = line id; -1 = invalid;
                          way order is LRU (most recent first) *)
  }

  type t = {
    cost : Cost.t;
    l1 : level;
    l2 : level;
    direct : bool;  (* both levels direct-mapped, power-of-two lines and
                       sets: the inline path *)
    l1_miss_penalty : int;
    l2_miss_penalty : int;
    sb : Store_buffer_impl.t;  (* completion cycles of outstanding stores *)
    drain_hit : int;
    drain_miss : int;
    mutable l1_hits : int;
    mutable l1_misses : int;
    mutable l2_misses : int;
    mutable stores : int;
  }

  let log2_exact n =
    let rec go s =
      if 1 lsl s = n then s else if 1 lsl s > n then -1 else go (s + 1)
    in
    if n <= 0 then -1 else go 0

  let make_level (g : Machine.cache_geometry) =
    let lines = g.size_bytes / g.line_bytes in
    if lines mod g.ways <> 0 then invalid_arg "Cache: ways must divide lines";
    let sets = lines / g.ways in
    {
      line_bytes = g.line_bytes;
      sets;
      ways = g.ways;
      line_shift = log2_exact g.line_bytes;
      set_mask = (if log2_exact sets >= 0 then sets - 1 else -1);
      tags = Array.make lines (-1);
    }

  let is_direct l = l.ways = 1 && l.line_shift >= 0 && l.set_mask >= 0

  let create (m : Machine.t) cost =
    let l1 = make_level m.l1 and l2 = make_level m.l2 in
    {
      cost;
      l1;
      l2;
      direct = is_direct l1 && is_direct l2;
      l1_miss_penalty = m.l1_miss_penalty;
      l2_miss_penalty = m.l2_miss_penalty;
      sb = Store_buffer_impl.create ~depth:m.store_buffer_depth;
      drain_hit = m.store_drain_hit;
      drain_miss = m.store_drain_miss;
      l1_hits = 0;
      l1_misses = 0;
      l2_misses = 0;
      stores = 0;
    }

  (* The direct-mapped path: a probe is one shift, one mask, one load
     and one compare, and a fill is one store.  [line land mask] is
     within the tags (one tag per set) for any [addr].  The tag arrays,
     shifts, masks and penalties are arguments, so that [Memory] can
     pass the copies it holds flat in its own record; [read] and
     [write] below pass [t]'s levels. *)

  let[@inline] read_direct t ~l1_tags ~l1_shift ~l1_mask ~l2_tags ~l2_shift
      ~l2_mask ~l1_penalty ~l2_penalty addr =
    let line = addr lsr l1_shift in
    let set = line land l1_mask in
    if Array.unsafe_get l1_tags set = line then t.l1_hits <- t.l1_hits + 1
    else begin
      t.l1_misses <- t.l1_misses + 1;
      let line2 = addr lsr l2_shift in
      let set2 = line2 land l2_mask in
      if Array.unsafe_get l2_tags set2 = line2 then
        Cost.add_read_stall t.cost l1_penalty
      else begin
        t.l2_misses <- t.l2_misses + 1;
        Cost.add_read_stall t.cost (l1_penalty + l2_penalty);
        Array.unsafe_set l2_tags set2 line2
      end;
      Array.unsafe_set l1_tags set line
    end

  (* L1 is write-through no-allocate: a store only updates an already
     present line.  Drain latency depends on whether the line is in L2
     (the write-through target); the store then enters the buffer at
     the current cycle. *)
  let[@inline] enqueue_store t ~l2_hit =
    let now = Cost.cycles t.cost in
    let latency = if l2_hit then t.drain_hit else t.drain_miss in
    let stall = Store_buffer_impl.push t.sb ~now ~latency in
    if stall > 0 then Cost.add_write_stall t.cost stall

  let[@inline] write_direct t ~l2_tags ~l2_shift ~l2_mask addr =
    t.stores <- t.stores + 1;
    let line = addr lsr l2_shift in
    let set = line land l2_mask in
    let hit = Array.unsafe_get l2_tags set = line in
    if not hit then Array.unsafe_set l2_tags set line;
    enqueue_store t ~l2_hit:hit

  (* The generic path: any associativity (LRU), any line and set
     counts. *)

  let line_id level addr =
    if level.line_shift >= 0 then addr lsr level.line_shift
    else addr / level.line_bytes

  let set_of level line =
    if level.set_mask >= 0 then line land level.set_mask else line mod level.sets

  (* Probe an LRU set; on a hit, promote the way to most-recently-used. *)
  let probe level addr =
    let line = line_id level addr in
    if level.ways = 1 then level.tags.(set_of level line) = line
    else begin
      let base = set_of level line * level.ways in
      let rec find w =
        if w = level.ways then -1
        else if level.tags.(base + w) = line then w
        else find (w + 1)
      in
      match find 0 with
      | -1 -> false
      | w ->
          for k = w downto 1 do
            level.tags.(base + k) <- level.tags.(base + k - 1)
          done;
          level.tags.(base) <- line;
          true
    end

  (* Insert as most-recently-used, evicting the LRU way. *)
  let fill level addr =
    let line = line_id level addr in
    if level.ways = 1 then level.tags.(set_of level line) <- line
    else begin
      let base = set_of level line * level.ways in
      for k = level.ways - 1 downto 1 do
        level.tags.(base + k) <- level.tags.(base + k - 1)
      done;
      level.tags.(base) <- line
    end

  let read_lru t addr =
    if probe t.l1 addr then t.l1_hits <- t.l1_hits + 1
    else begin
      t.l1_misses <- t.l1_misses + 1;
      Cost.add_read_stall t.cost t.l1_miss_penalty;
      if not (probe t.l2 addr) then begin
        t.l2_misses <- t.l2_misses + 1;
        Cost.add_read_stall t.cost t.l2_miss_penalty;
        fill t.l2 addr
      end;
      fill t.l1 addr
    end

  let write_lru t addr =
    t.stores <- t.stores + 1;
    let hit = probe t.l2 addr in
    if not hit then fill t.l2 addr;
    enqueue_store t ~l2_hit:hit

  let[@inline] read t addr =
    if t.direct then
      read_direct t ~l1_tags:t.l1.tags ~l1_shift:t.l1.line_shift
        ~l1_mask:t.l1.set_mask ~l2_tags:t.l2.tags ~l2_shift:t.l2.line_shift
        ~l2_mask:t.l2.set_mask ~l1_penalty:t.l1_miss_penalty
        ~l2_penalty:t.l2_miss_penalty addr
    else read_lru t addr

  let[@inline] write t addr =
    if t.direct then
      write_direct t ~l2_tags:t.l2.tags ~l2_shift:t.l2.line_shift
        ~l2_mask:t.l2.set_mask addr
    else write_lru t addr

  let l1_hits t = t.l1_hits
  let l1_misses t = t.l1_misses
  let l2_misses t = t.l2_misses
  let stores t = t.stores
end

type t = {
  cost : Cost.t;
  mutable data : Bytes.t;  (* [limit <= Bytes.length data] *)
  mutable limit : int;  (* one past highest mapped byte *)
  page_bytes : int;  (* a multiple of the word; page 0 is never mapped *)
  cache : Cache_impl.t option;  (* the counters, store buffer and levels *)
  fast : bool;  (* [cache] is direct-mapped: probe through the fields below *)
  l1_tags : int array;  (* [cache]'s level tags; empty without a cache *)
  l1_shift : int;
  l1_mask : int;
  l2_tags : int array;
  l2_shift : int;
  l2_mask : int;
  l1_penalty : int;
  l2_penalty : int;
  machine : Machine.t;
  mutable os_bytes : int;
  mutable oom_hook : (int -> bool) option;
  mutable corrupt_hook : (unit -> unit) option;
  mutable tracer : Obs.Tracer.t option;
}

exception Fault of string

let max_memory = 1 lsl 29 (* 512 MB simulated address space cap *)

let create ?(machine = Machine.ultrasparc_i) ?(with_cache = true) () =
  let page_bytes = machine.Machine.page_bytes in
  if page_bytes <= 0 || page_bytes land 3 <> 0 then
    invalid_arg "Memory.create: page_bytes must be a positive multiple of 4";
  let cost = Cost.create () in
  let cache =
    if with_cache then Some (Cache_impl.create machine cost) else None
  in
  let l1, l2, fast =
    match cache with
    | Some c -> (Some c.Cache_impl.l1, Some c.l2, c.direct)
    | None -> (None, None, false)
  in
  let tags = function Some l -> l.Cache_impl.tags | None -> [||] in
  let shift = function Some l -> l.Cache_impl.line_shift | None -> 0 in
  let mask = function Some l -> l.Cache_impl.set_mask | None -> 0 in
  {
    cost;
    data = Bytes.make (Int.max (1 lsl 20) page_bytes) '\000';
    (* Page 0 is never mapped so that 0 can act as NULL. *)
    limit = page_bytes;
    page_bytes;
    cache;
    fast;
    l1_tags = tags l1;
    l1_shift = shift l1;
    l1_mask = mask l1;
    l2_tags = tags l2;
    l2_shift = shift l2;
    l2_mask = mask l2;
    l1_penalty = machine.l1_miss_penalty;
    l2_penalty = machine.l2_miss_penalty;
    machine;
    os_bytes = 0;
    oom_hook = None;
    corrupt_hook = None;
    tracer = None;
  }

let set_oom_hook t hook = t.oom_hook <- hook
let set_corrupt_hook t hook = t.corrupt_hook <- hook
let tracer t = t.tracer

let set_tracer t tr =
  t.tracer <- Some tr;
  (* Stamp events with this machine's simulated clock. *)
  Obs.Tracer.set_clock tr (fun () -> Cost.cycles t.cost)

let machine t = t.machine
let cost t = t.cost
let cache t = t.cache
let os_bytes t = t.os_bytes
let limit t = t.limit

let ensure_capacity t bytes =
  let cap = Bytes.length t.data in
  if bytes > cap then begin
    if bytes > max_memory then
      raise
        (Fault (Printf.sprintf "simulated memory exhausted (%d bytes)" bytes));
    let cap' = max (cap * 2) bytes in
    let cap' = min max_memory cap' in
    let data' = Bytes.make cap' '\000' in
    Bytes.blit t.data 0 data' 0 cap;
    t.data <- data'
  end

let map_pages t n =
  if n <= 0 then invalid_arg "Memory.map_pages: n must be positive";
  (match t.oom_hook with
  | Some allow when not (allow n) ->
      raise
        (Fault (Printf.sprintf "simulated OS denied a request for %d pages" n))
  | Some _ | None -> ());
  let bytes = n * t.page_bytes in
  let addr = t.limit in
  ensure_capacity t (addr + bytes);
  t.limit <- addr + bytes;
  t.os_bytes <- t.os_bytes + bytes;
  (match t.tracer with
  | Some tr -> Obs.Tracer.page_map tr ~addr ~pages:n
  | None -> ());
  (* Corruption opportunities fire only at OS-interaction points, so
     the load/store hot paths carry no extra branch. *)
  (match t.corrupt_hook with Some f -> f () | None -> ());
  addr

let[@inline] is_mapped t addr = addr >= t.page_bytes && addr < t.limit

(* The messages of a failed [check_word] and [check_byte].  They only
   return the string; the check raises at its own site, so nothing
   runs after the call and the hot path keeps nothing live across it.
   An address both unaligned and unmapped is reported unaligned. *)
let[@inline never] word_fault addr =
  if addr land 3 <> 0 then Printf.sprintf "unaligned word access at %#x" addr
  else Printf.sprintf "word access to unmapped address %#x" addr

let[@inline never] byte_fault addr =
  Printf.sprintf "byte access to unmapped address %#x" addr

let[@inline] check_word t addr =
  if addr land 3 <> 0 || not (is_mapped t addr) then
    raise (Fault (word_fault addr))

let[@inline] check_byte t addr =
  if not (is_mapped t addr) then raise (Fault (byte_fault addr))

(* The host word at a checked address, read and written without a
   second bounds check (see the header).  Little-endian, as
   [Bytes.get_int32_le]. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] host_get32 t addr =
  let v = get32u t.data addr in
  if Sys.big_endian then swap32 v else v

let[@inline] host_set32 t addr v =
  let v = Int32.of_int v in
  set32u t.data addr (if Sys.big_endian then swap32 v else v)

let[@inline] raw_load t addr = Int32.to_int (host_get32 t addr) land 0xFFFFFFFF
let[@inline] host_get8 t addr = Char.code (Bytes.unsafe_get t.data addr)

let[@inline] host_set8 t addr v =
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

(* One instruction, then the cache model: all inlined, so an access
   makes no call.  The direct-mapped probes take their tags and line
   math from [t]; the counters and store buffer are [c]'s. *)
let[@inline] charge t n = Cost.instr t.cost n

let[@inline] read_direct t c addr =
  Cache_impl.read_direct c ~l1_tags:t.l1_tags ~l1_shift:t.l1_shift
    ~l1_mask:t.l1_mask ~l2_tags:t.l2_tags ~l2_shift:t.l2_shift
    ~l2_mask:t.l2_mask ~l1_penalty:t.l1_penalty ~l2_penalty:t.l2_penalty addr

let[@inline] write_direct t c addr =
  Cache_impl.write_direct c ~l2_tags:t.l2_tags ~l2_shift:t.l2_shift
    ~l2_mask:t.l2_mask addr

(* The LRU geometries: one call per access that probes and does the
   host access, so the caller's branch rejoins with only its result. *)
let[@inline never] load_lru t c addr =
  Cache_impl.read_lru c addr;
  raw_load t addr

let[@inline never] store_lru t c addr v =
  Cache_impl.write_lru c addr;
  host_set32 t addr v

let[@inline never] load_byte_lru t c addr =
  Cache_impl.read_lru c addr;
  host_get8 t addr

let[@inline never] store_byte_lru t c addr v =
  Cache_impl.write_lru c addr;
  host_set8 t addr v

let[@inline] load t addr =
  check_word t addr;
  charge t 1;
  match t.cache with
  | Some c when not t.fast -> load_lru t c addr
  | Some c ->
      read_direct t c addr;
      raw_load t addr
  | None -> raw_load t addr

(* Sign-extend the zero-extended word from bit 31, in ints. *)
let[@inline] load_signed t addr = (load t addr lxor 0x8000_0000) - 0x8000_0000

let[@inline] store t addr v =
  check_word t addr;
  charge t 1;
  match t.cache with
  | Some c when not t.fast -> store_lru t c addr v
  | Some c ->
      write_direct t c addr;
      host_set32 t addr v
  | None -> host_set32 t addr v

let[@inline] load_byte t addr =
  check_byte t addr;
  charge t 1;
  match t.cache with
  | Some c when not t.fast -> load_byte_lru t c addr
  | Some c ->
      read_direct t c addr;
      host_get8 t addr
  | None -> host_get8 t addr

let[@inline] store_byte t addr v =
  check_byte t addr;
  charge t 1;
  match t.cache with
  | Some c when not t.fast -> store_byte_lru t c addr v
  | Some c ->
      write_direct t c addr;
      host_set8 t addr v
  | None -> host_set8 t addr v

(* Bulk operations.  A contiguous word range is valid iff its first
   and last words are: mapping is a single [page_bytes, limit) span,
   so the per-word checks of the naive loops hoist to two.  Simulated
   costs are charged exactly as the word-by-word loops would: one
   instruction plus one cache access per word, interleaved in address
   order (stores must interleave because store-buffer stalls depend on
   the current cycle count). *)

let check_word_range t addr words what =
  if addr land 3 <> 0 then
    raise (Fault (Printf.sprintf "unaligned %s at %#x" what addr));
  if words > 0 then begin
    check_word t addr;
    check_word t (addr + ((words - 1) * 4))
  end

let clear t addr bytes =
  if bytes < 0 then invalid_arg "Memory.clear: negative length";
  if addr land 3 <> 0 then
    raise (Fault (Printf.sprintf "unaligned clear at %#x" addr));
  let words = (bytes + 3) / 4 in
  if words > 0 then begin
    check_word_range t addr words "clear";
    (match t.cache with
    | Some c when not t.fast ->
        for i = 0 to words - 1 do
          charge t 1;
          Cache_impl.write_lru c (addr + (i * 4))
        done
    | Some c ->
        for i = 0 to words - 1 do
          charge t 1;
          write_direct t c (addr + (i * 4))
        done
    | None -> charge t words);
    Bytes.fill t.data addr (words * 4) '\000'
  end

(* Bulk reads.  A read changes nothing that a later read's charge
   depends on: it neither reads the cycle count nor touches the store
   buffer.  So a run of [n] word reads charges its [n] instructions in
   one add, and the cache model probes each L1 line once.  That probe
   leaves the line most recently used in its set, direct-mapped or
   LRU, so each later word of the line in the run is an L1 hit that
   changes no tag.  Stores get no such batching (see above). *)

(* The words of [addr .. addr + 4n) that a [load] loop reads before
   its first fault: mapping is the one span [page_bytes, limit), so
   this is [n], the aligned words below [limit], or 0. *)
let[@inline] mapped_words t addr n =
  if addr land 3 <> 0 || not (is_mapped t addr) then 0
  else Int.min n ((t.limit - addr) / 4)

(* After the probe of [a], the words of the run [a, stop) that share
   its L1 line (which ends before [line_end]) hit: count them and
   return the next address to probe. *)
let[@inline] charge_line_run (c : Cache_impl.t) a ~line_end ~stop =
  let words = ((if line_end < stop then line_end else stop) - a + 3) / 4 in
  c.l1_hits <- c.l1_hits + words - 1;
  a + (words * 4)

(* Charge [n] reads of the mapped, aligned words from [addr]. *)
let charge_reads t addr n =
  charge t n;
  let stop = addr + (n * 4) in
  let a = ref addr in
  match t.cache with
  | None -> ()
  | Some c when not t.fast ->
      let l1 = c.Cache_impl.l1 in
      while !a < stop do
        Cache_impl.read_lru c !a;
        let line_end = (Cache_impl.line_id l1 !a + 1) * l1.line_bytes in
        a := charge_line_run c !a ~line_end ~stop
      done
  | Some c ->
      while !a < stop do
        read_direct t c !a;
        let line_end = ((!a lsr t.l1_shift) + 1) lsl t.l1_shift in
        a := charge_line_run c !a ~line_end ~stop
      done

let charge_loads t addr n =
  if n < 0 then invalid_arg "Memory.charge_loads: negative length";
  let k = mapped_words t addr n in
  charge_reads t addr k;
  (* A load loop faults at word [k]: raise its fault there. *)
  if k < n then check_word t (addr + (k * 4))

let load_block t addr n =
  if n < 0 then invalid_arg "Memory.load_block: negative length";
  charge_loads t addr n;
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    out.(i) <- raw_load t (addr + (i * 4))
  done;
  out

(* Scan the host bytes of the mapped prefix, then charge the words a
   [load] loop stopping at the first nonzero one would have read: up
   to and including that word, or else all [n], faulting where the
   loop would.  The scan reads 32 bytes per step while a whole block
   lies in the prefix, then 8, then one word, each step only past
   zeros, so it stops on the first nonzero word.  Every read ends at
   or below [addr + 4k <= limit], inside [data] (see the header).
   [while] loops, not a local recursive function, so no closure is
   built per call. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let find_nonzero t addr n =
  if n < 0 then invalid_arg "Memory.find_nonzero: negative length";
  let k = mapped_words t addr n in
  let d = t.data in
  let stop = addr + (k * 4) in
  let a = ref addr in
  while
    !a + 32 <= stop
    && Int64.logor
         (Int64.logor (get64u d !a) (get64u d (!a + 8)))
         (Int64.logor (get64u d (!a + 16)) (get64u d (!a + 24)))
       = 0L
  do
    a := !a + 32
  done;
  while !a + 8 <= stop && get64u d !a = 0L do
    a := !a + 8
  done;
  while !a < stop && raw_load t !a = 0 do
    a := !a + 4
  done;
  if !a < stop then begin
    let i = (!a - addr) / 4 in
    charge_reads t addr (i + 1);
    i
  end
  else begin
    charge_loads t addr n;
    n
  end

let store_block t addr words =
  let n = Array.length words in
  if n > 0 then begin
    check_word_range t addr n "block store";
    match t.cache with
    | Some c when not t.fast ->
        for i = 0 to n - 1 do
          charge t 1;
          store_lru t c (addr + (i * 4)) words.(i)
        done
    | Some c ->
        for i = 0 to n - 1 do
          charge t 1;
          write_direct t c (addr + (i * 4));
          host_set32 t (addr + (i * 4)) words.(i)
        done
    | None ->
        charge t n;
        for i = 0 to n - 1 do
          host_set32 t (addr + (i * 4)) words.(i)
        done
  end

let store_bytes t addr s =
  let n = String.length s in
  if n > 0 then begin
    check_byte t addr;
    check_byte t (addr + n - 1);
    (match t.cache with
    | Some c when not t.fast ->
        for i = 0 to n - 1 do
          charge t 1;
          Cache_impl.write_lru c (addr + i)
        done
    | Some c ->
        for i = 0 to n - 1 do
          charge t 1;
          write_direct t c (addr + i)
        done
    | None -> charge t n);
    Bytes.blit_string s 0 t.data addr n
  end

(* Cost-free, but checked as an access is, and inlined like one. *)
let[@inline] peek t addr =
  check_word t addr;
  raw_load t addr

let[@inline] poke t addr v =
  check_word t addr;
  host_set32 t addr v

let poke_bytes t addr s =
  let n = String.length s in
  if n > 0 then begin
    check_byte t addr;
    check_byte t (addr + n - 1);
    Bytes.blit_string s 0 t.data addr n
  end

let poke_fill t addr bytes =
  if bytes < 0 then invalid_arg "Memory.poke_fill: negative length";
  if addr land 3 <> 0 then
    raise (Fault (Printf.sprintf "unaligned fill at %#x" addr));
  let words = (bytes + 3) / 4 in
  if words > 0 then begin
    check_word_range t addr words "fill";
    Bytes.fill t.data addr (words * 4) '\000'
  end

let flip_bit t addr bit =
  if bit < 0 || bit > 31 then invalid_arg "Memory.flip_bit: bit out of range";
  check_word t addr;
  host_set32 t addr (raw_load t addr lxor (1 lsl bit))
