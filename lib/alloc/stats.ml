(* The address table is open addressing over one int array: a slot
   holds [addr lsl size_bits lor size], 0 when empty.  Addresses are
   below 2^29 (the simulated address space) and never 0, and rounded
   sizes fit in [size_bits], so a slot is one immediate int: no boxing,
   no [caml_hash] call, and nothing allocated per operation.  Linear
   probing from a multiplicative hash ({!Int_table.hash}, which spreads
   the alignment zeros of addresses over the index); at most 3/4 full;
   deletion shifts later entries of the probe run back, so there are
   no tombstones. *)
type t = {
  mutable allocs : int;
  mutable frees : int;
  mutable total_bytes : int;
  mutable live_bytes : int;
  mutable max_live_bytes : int;
  mutable os_bytes : int;
  mutable slots : int array;  (* addr -> requested size, measurement only *)
  mutable shift : int;  (* 32 - log2 (Array.length slots) *)
  mutable count : int;
}

let size_bits = 30
let size_mask = (1 lsl size_bits) - 1
let max_addr = 1 lsl 29
let initial_log2 = 10

let create () =
  {
    allocs = 0;
    frees = 0;
    total_bytes = 0;
    live_bytes = 0;
    max_live_bytes = 0;
    os_bytes = 0;
    slots = Array.make (1 lsl initial_log2) 0;
    shift = 32 - initial_log2;
    count = 0;
  }

(* The top bits of {!Int_table.hash}: the best-mixed ones. *)
let[@inline] home t addr = Int_table.hash addr lsr t.shift

(* Index of [addr]'s slot, or of the empty slot ending its probe run. *)
let find t addr =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (home t addr) in
  let s = ref (Array.unsafe_get slots !i) in
  while !s <> 0 && !s lsr size_bits <> addr do
    i := (!i + 1) land mask;
    s := Array.unsafe_get slots !i
  done;
  !i

let grow t =
  let old = t.slots in
  t.slots <- Array.make (2 * Array.length old) 0;
  t.shift <- t.shift - 1;
  Array.iter (fun s -> if s <> 0 then t.slots.(find t (s lsr size_bits)) <- s) old

let round4 n = (n + 3) land lnot 3

let on_alloc t ~addr ~size =
  let size = round4 size in
  if addr <= 0 || addr >= max_addr || size > size_mask then
    invalid_arg "Stats.on_alloc: address or size out of range";
  t.allocs <- t.allocs + 1;
  t.total_bytes <- t.total_bytes + size;
  t.live_bytes <- t.live_bytes + size;
  if t.live_bytes > t.max_live_bytes then t.max_live_bytes <- t.live_bytes;
  let i = find t addr in
  let fresh = t.slots.(i) = 0 in
  t.slots.(i) <- (addr lsl size_bits) lor size;
  if fresh then begin
    t.count <- t.count + 1;
    if 4 * t.count > 3 * Array.length t.slots then grow t
  end

(* Empty slot [hole], then walk the rest of its probe run: an entry
   whose home is not cyclically within (hole, j] can no longer be
   reached past the hole, so it moves into it and leaves a new hole. *)
let delete t hole =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let hole = ref hole in
  let j = ref ((!hole + 1) land mask) in
  while slots.(!j) <> 0 do
    let k = home t (slots.(!j) lsr size_bits) in
    if (!j - k) land mask >= (!j - !hole) land mask then begin
      slots.(!hole) <- slots.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  slots.(!hole) <- 0;
  t.count <- t.count - 1

let on_free t addr =
  let i = find t addr in
  let s = t.slots.(i) in
  if s <> 0 then begin
    delete t i;
    t.frees <- t.frees + 1;
    t.live_bytes <- t.live_bytes - (s land size_mask)
  end

(* Blocks freed only with their group (region objects) are counted
   without an entry in the address table. *)
let on_group_alloc t size =
  let size = round4 size in
  t.allocs <- t.allocs + 1;
  t.total_bytes <- t.total_bytes + size;
  t.live_bytes <- t.live_bytes + size;
  if t.live_bytes > t.max_live_bytes then t.max_live_bytes <- t.live_bytes

let on_group_free t ~count ~bytes =
  t.frees <- t.frees + count;
  t.live_bytes <- t.live_bytes - bytes

let on_map t bytes = t.os_bytes <- t.os_bytes + bytes
let allocs t = t.allocs
let frees t = t.frees
let total_bytes t = t.total_bytes
let live_bytes t = t.live_bytes
let max_live_bytes t = t.max_live_bytes
let os_bytes t = t.os_bytes

let pp ppf t =
  Fmt.pf ppf "allocs=%d frees=%d total=%dB live=%dB max_live=%dB os=%dB"
    t.allocs t.frees t.total_bytes t.live_bytes t.max_live_bytes t.os_bytes
