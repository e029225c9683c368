(* Best-fit over one doubly-linked free list threaded through free
   chunks; the list head is the first word of the static page. *)

(* Full best-fit scan; an exact fit stops early. *)
let rec scan t size c best best_size =
  if c = 0 then best
  else begin
    let csize = Chunks.chunk_size t c in
    if csize = size then c
    else if csize > size && (best = 0 || csize < best_size) then
      scan t size (Chunks.list_next t c) c csize
    else scan t size (Chunks.list_next t c) best best_size
  end

let policy ~static_area:head_addr : Chunks.policy =
  let insert t c = Chunks.list_push t ~head_addr c in
  let unlink t c = Chunks.list_remove t ~head_addr c in
  let find t size =
    let c = scan t size (Chunks.list_head t ~head_addr) 0 0 in
    if c <> 0 then unlink t c;
    c
  in
  { insert; unlink; find }

let create_with_heap mem =
  let stats = Stats.create () in
  let heap = Chunks.create mem stats ~min_extend_pages:4 policy in
  ( {
      Allocator.name = "sun";
      memory = mem;
      malloc = Chunks.malloc heap;
      free = Chunks.free heap;
      usable_size = Chunks.usable_size heap;
      check_heap = (fun () -> Chunks.check_invariants heap);
      stats;
    },
    heap )

let create mem = fst (create_with_heap mem)
