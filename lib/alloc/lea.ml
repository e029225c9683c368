(* Bins: sizes are multiples of 8, minimum 16.
   - small bins 0..62: exact size 16 + 8*i (16 to 512 bytes)
   - large bins 63..70: bin 63 covers 520-1024 bytes, then one bin per
     power of two (1032-2048 -> 64, ...), and bin 70 everything above
     64 KB
   Bin heads are consecutive words in the allocator's static page. *)

let small_bins = 63
let large_bins = 8
let num_bins = small_bins + large_bins

(* Above 520 bytes, the bin is 63 plus the number of halvings that
   bring [size] to at most 1024: the least [k] with
   [size < 1025 * 2^k], that is the bit length of [size / 1025],
   capped at 7.  One division and one table read, for every size. *)
let large_bin =
  let rec bits q = if q = 0 then 0 else 1 + bits (q lsr 1) in
  Bytes.init 128 (fun q -> Char.chr (small_bins + bits q))

let bin_index size =
  if size <= 512 + 8 then (size - 16) / 8
  else
    let q = size / 1025 in
    if q >= 128 then num_bins - 1 else Char.code (Bytes.unsafe_get large_bin q)

(* Within a bin, first fit; small bins hold a single size so the
   first chunk always fits. *)
let rec in_bin t size c =
  if c = 0 then 0
  else if Chunks.chunk_size t c >= size then c
  else in_bin t size (Chunks.list_next t c)

(* Skip each run of empty bins with one bulk scan of their heads; the
   scan charges exactly the head loads a bin-by-bin walk would, the
   nonempty bin's included, so its head is then read with a cost-free
   peek. *)
let rec over_bins t bins_addr size i =
  if i >= num_bins then 0
  else begin
    let mem = Chunks.memory t in
    let j = i + Sim.Memory.find_nonzero mem (bins_addr + (i * 4)) (num_bins - i) in
    if j >= num_bins then 0
    else begin
      let c = in_bin t size (Sim.Memory.peek mem (bins_addr + (j * 4))) in
      if c <> 0 then c else over_bins t bins_addr size (j + 1)
    end
  end

let policy ~static_area:bins_addr : Chunks.policy =
  let head_addr i = bins_addr + (i * 4) in
  let insert t c =
    let size = Chunks.chunk_size t c in
    Chunks.list_push t ~head_addr:(head_addr (bin_index size)) c
  in
  let unlink t c =
    let size = Chunks.chunk_size t c in
    Chunks.list_remove t ~head_addr:(head_addr (bin_index size)) c
  in
  let find t size =
    let c = over_bins t bins_addr size (bin_index size) in
    if c <> 0 then unlink t c;
    c
  in
  { insert; unlink; find }

let create_with_heap mem =
  let stats = Stats.create () in
  let heap = Chunks.create mem stats ~min_extend_pages:4 policy in
  ( {
      Allocator.name = "lea";
      memory = mem;
      malloc = Chunks.malloc heap;
      free = Chunks.free heap;
      usable_size = Chunks.usable_size heap;
      check_heap = (fun () -> Chunks.check_invariants heap);
      stats;
    },
    heap )

let create mem = fst (create_with_heap mem)
