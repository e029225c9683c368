(* Region record: one word, the head of the object list.  Each object
   is malloc'd with an 8-byte prefix: [next object][padding], data
   follows. *)

type t = { alloc : Alloc.Allocator.t; mutable live : int }
type region = int

let overhead_per_object = 8

let create alloc = { alloc; live = 0 }
let allocator t = t.alloc
let mem t = t.alloc.Alloc.Allocator.memory

let cost t = Sim.Memory.cost (mem t)

(* Each operation runs under [Sim.Cost.within]: unlike [with_context],
   no closure per call. *)

let newregion_body t () =
  let r = t.alloc.Alloc.Allocator.malloc 4 in
  Sim.Memory.store (mem t) r 0;
  t.live <- t.live + 1;
  r

let newregion t = Sim.Cost.within (cost t) Sim.Cost.Alloc newregion_body t ()

(* [r] and [size] travel as one pair: [within] passes two arguments. *)
let alloc_body t (r, size) =
  let p = t.alloc.Alloc.Allocator.malloc (size + overhead_per_object) in
  let m = mem t in
  Sim.Memory.store m p (Sim.Memory.load m r);
  Sim.Memory.store m r p;
  p + overhead_per_object

let alloc_common t r size =
  Sim.Cost.within (cost t) Sim.Cost.Alloc alloc_body t (r, size)

let ralloc t r size =
  let user = alloc_common t r size in
  Sim.Memory.clear (mem t) user ((size + 3) land lnot 3);
  user

let rstralloc t r size = alloc_common t r size

let rec free_all t m p =
  if p <> 0 then begin
    let next = Sim.Memory.load m p in
    t.alloc.Alloc.Allocator.free p;
    free_all t m next
  end

let delete_body t r =
  let m = mem t in
  free_all t m (Sim.Memory.load m r);
  t.alloc.Alloc.Allocator.free r;
  t.live <- t.live - 1

let deleteregion t r = Sim.Cost.within (cost t) Sim.Cost.Alloc delete_body t r

let live_regions t = t.live
