type context = Base | Alloc | Refcount | Stack_scan | Cleanup

(* [instrs] is the running total over every context; a charge is one
   add to it.  The per-context fields hold what each context was
   charged up to [mark], the total when the current context was last
   entered or left; the current context's share since then is
   [instrs - mark], folded in by [settle]. *)
type t = {
  mutable instrs : int;
  mutable mark : int;
  mutable base : int;
  mutable alloc : int;
  mutable refcount : int;
  mutable stack_scan : int;
  mutable cleanup : int;
  mutable read_stalls : int;
  mutable write_stalls : int;
  mutable context : context;
}

let create () =
  {
    instrs = 0;
    mark = 0;
    base = 0;
    alloc = 0;
    refcount = 0;
    stack_scan = 0;
    cleanup = 0;
    read_stalls = 0;
    write_stalls = 0;
    context = Base;
  }

let reset t =
  t.instrs <- 0;
  t.mark <- 0;
  t.base <- 0;
  t.alloc <- 0;
  t.refcount <- 0;
  t.stack_scan <- 0;
  t.cleanup <- 0;
  t.read_stalls <- 0;
  t.write_stalls <- 0;
  t.context <- Base

let instr t n = t.instrs <- t.instrs + n

(* Credit the instructions charged since [mark] to the current
   context. *)
let settle t =
  let n = t.instrs - t.mark in
  t.mark <- t.instrs;
  match t.context with
  | Base -> t.base <- t.base + n
  | Alloc -> t.alloc <- t.alloc + n
  | Refcount -> t.refcount <- t.refcount + n
  | Stack_scan -> t.stack_scan <- t.stack_scan + n
  | Cleanup -> t.cleanup <- t.cleanup + n

let context t = t.context

let enter t c =
  let saved = t.context in
  settle t;
  t.context <- c;
  saved

let leave t saved =
  settle t;
  t.context <- saved

let within t c f a b =
  let saved = enter t c in
  match f a b with
  | v ->
      leave t saved;
      v
  | exception e ->
      leave t saved;
      raise e

let with_context t c f = within t c (fun f () -> f ()) f ()

let account t c settled =
  if t.context = c then settled + (t.instrs - t.mark) else settled

let add_read_stall t n = t.read_stalls <- t.read_stalls + n
let add_write_stall t n = t.write_stalls <- t.write_stalls + n
let base_instrs t = account t Base t.base
let alloc_instrs t = account t Alloc t.alloc
let refcount_instrs t = account t Refcount t.refcount
let stack_scan_instrs t = account t Stack_scan t.stack_scan
let cleanup_instrs t = account t Cleanup t.cleanup
let total_instrs t = t.instrs
let memory_instrs t = t.instrs - base_instrs t
let read_stall_cycles t = t.read_stalls
let write_stall_cycles t = t.write_stalls
let cycles t = t.instrs + t.read_stalls + t.write_stalls
