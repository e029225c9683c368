(* The cache and store-buffer model of Figure 10.  Its code lives in
   this unit ([Cache] re-exports the cache half), because it
   runs on every simulated access: here it inlines under any build
   profile, relying on no cross-unit inlining (DESIGN §5h).  For the
   UltraSparc geometry (both levels direct-mapped, power-of-two lines
   and sets), [load], [store] and the bulk operations below inline the
   whole model; the set-associative what-if geometries take the
   generic LRU functions.  Charges go through [Cost]'s functions,
   which are small enough to inline across units. *)

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

  let reset t =
    t.head <- 0;
    t.len <- 0;
    t.last_completion <- 0

  let[@inline] advance t =
    let h = t.head + 1 in
    t.head <- (if h = t.depth then 0 else h);
    t.len <- t.len - 1

  let[@inline] push t ~now ~latency =
    (* Retire completed stores. *)
    while t.len > 0 && t.buf.(t.head) <= now do
      advance t
    done;
    let stall =
      if t.len >= t.depth then begin
        (* Buffer full: stall until the oldest entry retires. *)
        let oldest = t.buf.(t.head) in
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
    t.buf.(tail) <- completion;
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
     and one compare, and a fill is one store.  [line land set_mask] is
     within [tags] (one tag per set) for any [addr]. *)

  let[@inline] read_direct t addr =
    let l1 = t.l1 in
    let line = addr lsr l1.line_shift in
    let set = line land l1.set_mask in
    if Array.unsafe_get l1.tags set = line then t.l1_hits <- t.l1_hits + 1
    else begin
      t.l1_misses <- t.l1_misses + 1;
      let l2 = t.l2 in
      let line2 = addr lsr l2.line_shift in
      let set2 = line2 land l2.set_mask in
      if Array.unsafe_get l2.tags set2 = line2 then
        Cost.add_read_stall t.cost t.l1_miss_penalty
      else begin
        t.l2_misses <- t.l2_misses + 1;
        Cost.add_read_stall t.cost (t.l1_miss_penalty + t.l2_miss_penalty);
        Array.unsafe_set l2.tags set2 line2
      end;
      Array.unsafe_set l1.tags set line
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

  let[@inline] write_direct t addr =
    t.stores <- t.stores + 1;
    let l2 = t.l2 in
    let line = addr lsr l2.line_shift in
    let set = line land l2.set_mask in
    let hit = Array.unsafe_get l2.tags set = line in
    if not hit then Array.unsafe_set l2.tags set line;
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

  let[@inline] read t addr = if t.direct then read_direct t addr else read_lru t addr

  let[@inline] write t addr =
    if t.direct then write_direct t addr else write_lru t addr

  let l1_hits t = t.l1_hits
  let l1_misses t = t.l1_misses
  let l2_misses t = t.l2_misses
  let stores t = t.stores
end

type t = {
  machine : Machine.t;
  cost : Cost.t;
  cache : Cache_impl.t option;
  mutable data : Bytes.t;
  mutable limit : int;  (* one past highest mapped byte *)
  mutable os_bytes : int;
  mutable oom_hook : (int -> bool) option;
  mutable corrupt_hook : (unit -> unit) option;
  mutable tracer : Obs.Tracer.t;
}

exception Fault of string

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt
let max_memory = 1 lsl 29 (* 512 MB simulated address space cap *)

let create ?(machine = Machine.ultrasparc_i) ?(with_cache = true) () =
  let cost = Cost.create () in
  let cache =
    if with_cache then Some (Cache_impl.create machine cost) else None
  in
  {
    machine;
    cost;
    cache;
    data = Bytes.make (1 lsl 20) '\000';
    (* Page 0 is never mapped so that 0 can act as NULL. *)
    limit = machine.Machine.page_bytes;
    os_bytes = 0;
    oom_hook = None;
    corrupt_hook = None;
    tracer = Obs.Tracer.null ();
  }

let set_oom_hook t hook = t.oom_hook <- hook
let set_corrupt_hook t hook = t.corrupt_hook <- hook
let tracer t = t.tracer

let set_tracer t tr =
  t.tracer <- tr;
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
    if bytes > max_memory then fault "simulated memory exhausted (%d bytes)" bytes;
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
      fault "simulated OS denied a request for %d pages" n
  | Some _ | None -> ());
  let bytes = n * t.machine.Machine.page_bytes in
  let addr = t.limit in
  ensure_capacity t (addr + bytes);
  t.limit <- addr + bytes;
  t.os_bytes <- t.os_bytes + bytes;
  Obs.Tracer.page_map t.tracer ~addr ~pages:n;
  (* Corruption opportunities fire only at OS-interaction points, so
     the load/store hot paths carry no extra branch. *)
  (match t.corrupt_hook with Some f -> f () | None -> ());
  addr

let[@inline] is_mapped t addr =
  addr >= t.machine.Machine.page_bytes && addr < t.limit

let[@inline] check_word t addr =
  if addr land 3 <> 0 then fault "unaligned word access at %#x" addr;
  if not (is_mapped t addr) then fault "word access to unmapped address %#x" addr

let[@inline] check_byte t addr =
  if not (is_mapped t addr) then fault "byte access to unmapped address %#x" addr

(* One instruction, then the cache model: all inlined, so an access
   makes no call. *)
let[@inline] charge t n = Cost.instr t.cost n

let[@inline] touch_read t addr =
  charge t 1;
  match t.cache with Some c -> Cache_impl.read c addr | None -> ()

let[@inline] touch_write t addr =
  charge t 1;
  match t.cache with Some c -> Cache_impl.write c addr | None -> ()

let[@inline] raw_load t addr =
  Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF

let load t addr =
  check_word t addr;
  touch_read t addr;
  raw_load t addr

let load_signed t addr =
  check_word t addr;
  touch_read t addr;
  Int32.to_int (Bytes.get_int32_le t.data addr)

let store t addr v =
  check_word t addr;
  touch_write t addr;
  Bytes.set_int32_le t.data addr (Int32.of_int v)

let load_byte t addr =
  check_byte t addr;
  touch_read t addr;
  Char.code (Bytes.get t.data addr)

let store_byte t addr v =
  check_byte t addr;
  touch_write t addr;
  Bytes.set t.data addr (Char.unsafe_chr (v land 0xFF))

(* Bulk operations.  A contiguous word range is valid iff its first
   and last words are: mapping is a single [page_bytes, limit) span,
   so the per-word checks of the naive loops hoist to two.  Simulated
   costs are charged exactly as the word-by-word loops would: one
   instruction plus one cache access per word, interleaved in address
   order (stores must interleave because store-buffer stalls depend on
   the current cycle count). *)

let check_word_range t addr words what =
  if addr land 3 <> 0 then fault "unaligned %s at %#x" what addr;
  if words > 0 then begin
    check_word t addr;
    check_word t (addr + ((words - 1) * 4))
  end

let clear t addr bytes =
  if bytes < 0 then invalid_arg "Memory.clear: negative length";
  if addr land 3 <> 0 then fault "unaligned clear at %#x" addr;
  let words = (bytes + 3) / 4 in
  if words > 0 then begin
    check_word_range t addr words "clear";
    (match t.cache with
    | Some c ->
        for i = 0 to words - 1 do
          charge t 1;
          Cache_impl.write c (addr + (i * 4))
        done
    | None -> charge t words);
    Bytes.fill t.data addr (words * 4) '\000'
  end

let load_block t addr n =
  if n < 0 then invalid_arg "Memory.load_block: negative length";
  if n = 0 then [||]
  else begin
    check_word_range t addr n "block load";
    charge t n;
    (match t.cache with
    | Some c ->
        for i = 0 to n - 1 do
          Cache_impl.read c (addr + (i * 4))
        done
    | None -> ());
    let out = Array.make n 0 in
    for i = 0 to n - 1 do
      out.(i) <- raw_load t (addr + (i * 4))
    done;
    out
  end

(* The scan stops at the first nonzero word, and must charge, probe
   the cache and fault exactly as a {!load} loop that stops there:
   each word is checked before it is charged, so a scan that reaches
   an unmapped word faults after charging the words before it.  A
   [while] loop, not a local recursive function, so no closure is
   built per call. *)
let find_nonzero t addr n =
  if n < 0 then invalid_arg "Memory.find_nonzero: negative length";
  let i = ref 0 and found = ref false in
  while (not !found) && !i < n do
    let a = addr + (!i * 4) in
    check_word t a;
    touch_read t a;
    if raw_load t a <> 0 then found := true else incr i
  done;
  !i

let store_block t addr words =
  let n = Array.length words in
  if n > 0 then begin
    check_word_range t addr n "block store";
    match t.cache with
    | Some c ->
        for i = 0 to n - 1 do
          charge t 1;
          Cache_impl.write c (addr + (i * 4));
          Bytes.set_int32_le t.data (addr + (i * 4)) (Int32.of_int words.(i))
        done
    | None ->
        charge t n;
        for i = 0 to n - 1 do
          Bytes.set_int32_le t.data (addr + (i * 4)) (Int32.of_int words.(i))
        done
  end

let store_bytes t addr s =
  let n = String.length s in
  if n > 0 then begin
    check_byte t addr;
    check_byte t (addr + n - 1);
    (match t.cache with
    | Some c ->
        for i = 0 to n - 1 do
          charge t 1;
          Cache_impl.write c (addr + i)
        done
    | None -> charge t n);
    Bytes.blit_string s 0 t.data addr n
  end

let peek t addr =
  check_word t addr;
  raw_load t addr

let poke t addr v =
  check_word t addr;
  Bytes.set_int32_le t.data addr (Int32.of_int v)

let poke_byte t addr v =
  check_byte t addr;
  Bytes.set t.data addr (Char.chr (v land 0xFF))

let poke_bytes t addr s =
  let n = String.length s in
  if n > 0 then begin
    check_byte t addr;
    check_byte t (addr + n - 1);
    Bytes.blit_string s 0 t.data addr n
  end

let poke_fill t addr bytes =
  if bytes < 0 then invalid_arg "Memory.poke_fill: negative length";
  if addr land 3 <> 0 then fault "unaligned fill at %#x" addr;
  let words = (bytes + 3) / 4 in
  if words > 0 then begin
    check_word_range t addr words "fill";
    Bytes.fill t.data addr (words * 4) '\000'
  end

let flip_bit t addr bit =
  if bit < 0 || bit > 31 then invalid_arg "Memory.flip_bit: bit out of range";
  check_word t addr;
  Bytes.set_int32_le t.data addr
    (Int32.of_int (raw_load t addr lxor (1 lsl bit)))
