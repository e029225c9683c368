type frame = {
  slots : int array;
  ptr : bool array;
  mutable operands : (int * bool) list;  (* value, is-region-pointer *)
}

type t = {
  mem : Sim.Memory.t;
  mutable frames : frame array;
  mutable depth : int;
  mutable hwm : int;
  mutable unscan_hook : frame -> unit;
  mutable pop_hook : frame -> unit;
  globals_base : int;
  globals_words : int;
  mutable current_id : int;  (* scheduled mutator identity; 0 until set *)
}

let create ?(globals_words = 1024) mem =
  let bytes = globals_words * 4 in
  let pages = (bytes + 4095) / 4096 in
  let globals_base = Sim.Memory.map_pages mem pages in
  {
    mem;
    frames = Array.make 64 { slots = [||]; ptr = [||]; operands = [] };
    depth = 0;
    hwm = 0;
    unscan_hook = ignore;
    pop_hook = ignore;
    globals_base;
    globals_words;
    current_id = 0;
  }

let memory t = t.mem

(* The scheduled mutator identity: which of the N interleaved mutators
   the machine is currently running.  Pure bookkeeping (a thread-local
   register), charging nothing; the frame stack is shared — frames
   belong to whichever mutator pushed them. *)
let current_id t = t.current_id

let set_current_id t mid =
  if mid < 0 then invalid_arg "Mutator.set_current_id: negative id";
  t.current_id <- mid

let globals_words t = t.globals_words

let global_addr t i =
  if i < 0 || i >= t.globals_words then invalid_arg "Mutator.global_addr";
  t.globals_base + (i * 4)

let is_global t addr =
  addr >= t.globals_base && addr < t.globals_base + (t.globals_words * 4)

let push_frame t ~nslots ~ptr_slots =
  let fr =
    { slots = Array.make nslots 0; ptr = Array.make nslots false; operands = [] }
  in
  List.iter
    (fun i ->
      if i < 0 || i >= nslots then invalid_arg "Mutator.push_frame: bad slot";
      fr.ptr.(i) <- true)
    ptr_slots;
  if t.depth = Array.length t.frames then begin
    let bigger = Array.make (t.depth * 2) fr in
    Array.blit t.frames 0 bigger 0 t.depth;
    t.frames <- bigger
  end;
  t.frames.(t.depth) <- fr;
  t.depth <- t.depth + 1;
  fr

let pop_frame t =
  if t.depth = 0 then invalid_arg "Mutator.pop_frame: empty stack";
  (* The currently executing frame is never scanned — the paper's
     invariant "the number of frames below the high-water mark is
     always at least one" — so the popped frame needs no unscan. *)
  assert (t.hwm < t.depth);
  t.pop_hook t.frames.(t.depth - 1);
  t.depth <- t.depth - 1;
  (* Control returns into the new top frame; if it was scanned the
     patched return address runs the unscan function. *)
  if t.depth > 0 && t.hwm = t.depth then begin
    t.unscan_hook t.frames.(t.depth - 1);
    t.hwm <- t.depth - 1
  end

let with_frame t ~nslots ~ptr_slots f =
  let fr = push_frame t ~nslots ~ptr_slots in
  match f fr with
  | v ->
      pop_frame t;
      v
  | exception e ->
      pop_frame t;
      raise e

let depth t = t.depth

let frame t i =
  if i < 0 || i >= t.depth then invalid_arg "Mutator.frame";
  t.frames.(i)

let top_frame t =
  if t.depth = 0 then invalid_arg "Mutator.top_frame: empty stack";
  t.frames.(t.depth - 1)

let get_local fr i = fr.slots.(i)

let index_of t fr =
  let rec go i =
    if i < 0 then -1 else if t.frames.(i) == fr then i else go (i - 1)
  in
  go (t.depth - 1)

(* Writing a slot of a scanned frame (below the high-water mark)
   invalidates its scan — and those of every frame between it and the
   mark.  Under the paper's single-stack discipline only the executing
   top frame is written, so this never fires; an N-mutator schedule
   writes whichever mutator's frame is current, which behaves exactly
   as if control had returned into it: the mark descends to the frame,
   running the unscan function for each frame it passes. *)
let unscan_to t target =
  while t.hwm > target do
    t.unscan_hook t.frames.(t.hwm - 1);
    t.hwm <- t.hwm - 1
  done

let set_local t fr i v =
  Sim.Cost.instr (Sim.Memory.cost t.mem) 1;
  (if t.hwm > 0 then
     let idx = index_of t fr in
     if idx >= 0 && idx < t.hwm then unscan_to t idx);
  fr.slots.(i) <- v

(* Slot write without the scanned-frame write-back: region deletion
   clears the deleted handle mid-scan and manages the mark itself. *)
let set_local_raw t fr i v =
  Sim.Cost.instr (Sim.Memory.cost t.mem) 1;
  fr.slots.(i) <- v

let nslots fr = Array.length fr.slots
let is_ptr_slot fr i = fr.ptr.(i)

let push_operand t fr ~value ~is_ptr =
  Sim.Cost.instr (Sim.Memory.cost t.mem) 1;
  fr.operands <- (value, is_ptr) :: fr.operands

let pop_operand t fr =
  Sim.Cost.instr (Sim.Memory.cost t.mem) 1;
  match fr.operands with
  | (v, _) :: rest ->
      fr.operands <- rest;
      v
  | [] -> invalid_arg "Mutator.pop_operand: empty operand stack"

let operands fr = fr.operands

let iter_live_ptrs fr f =
  Array.iteri (fun i v -> if fr.ptr.(i) then f v) fr.slots;
  List.iter (fun (v, is_ptr) -> if is_ptr then f v) fr.operands

let hwm t = t.hwm

let set_hwm t h =
  if h < 0 || h > t.depth then invalid_arg "Mutator.set_hwm";
  t.hwm <- h

let set_unscan_hook t f = t.unscan_hook <- f
let set_pop_hook t f = t.pop_hook <- f

let iter_roots t f =
  for i = 0 to t.depth - 1 do
    Array.iter f t.frames.(i).slots;
    List.iter (fun (v, _) -> f v) t.frames.(i).operands
  done;
  for i = 0 to t.globals_words - 1 do
    f (Sim.Memory.peek t.mem (t.globals_base + (i * 4)))
  done
