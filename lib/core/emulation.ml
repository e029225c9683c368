(* Region record: one word, the head of the object list.  Each object
   is malloc'd with an 8-byte prefix: [next object][padding], data
   follows. *)

(* A live region's objects: their number and word-rounded bytes,
   released from [req] in one step when the region is deleted. *)
type counts = { mutable objects : int; mutable bytes : int }

type t = {
  alloc : Alloc.Allocator.t;
  req : Alloc.Stats.t;  (* the program's requests, counted by group *)
  regions : counts Alloc.Int_table.t;  (* region -> its objects *)
  mutable overhead : int;  (* current bytes of region records and links *)
  mutable max_overhead : int;
}

type region = int

let link_bytes = 8

(* The one-word region record plus its malloc header, as the paper
   counts it. *)
let record_bytes = 12

let create alloc =
  {
    alloc;
    req = Alloc.Stats.create ();
    regions = Alloc.Int_table.create 64;
    overhead = 0;
    max_overhead = 0;
  }

let allocator t = t.alloc
let requested t = t.req
let max_overhead_bytes t = t.max_overhead
let mem t = t.alloc.Alloc.Allocator.memory

let cost t = Sim.Memory.cost (mem t)

(* The books are host-side and charge nothing; each is updated after
   the simulated operation it describes. *)
let add_overhead t bytes =
  t.overhead <- t.overhead + bytes;
  if t.overhead > t.max_overhead then t.max_overhead <- t.overhead

(* Region objects are only ever freed with their region, so [req]
   records them without their addresses (see {!deleteregion}). *)
let count_object t r size =
  Alloc.Stats.on_group_alloc t.req size;
  let c = Alloc.Int_table.find t.regions r in
  c.objects <- c.objects + 1;
  c.bytes <- c.bytes + ((size + 3) land lnot 3);
  add_overhead t link_bytes

(* Each operation runs under an inlined [Sim.Cost.within] or
   [within3]: unlike [with_context], no closure per call, and the body
   takes its arguments directly. *)

let newregion_body t () =
  let r = t.alloc.Alloc.Allocator.malloc 4 in
  Sim.Memory.store (mem t) r 0;
  r

let newregion t =
  let r = Sim.Cost.within (cost t) Sim.Cost.Alloc newregion_body t () in
  Alloc.Int_table.replace t.regions r { objects = 0; bytes = 0 };
  add_overhead t record_bytes;
  r

let alloc_body t r size =
  let p = t.alloc.Alloc.Allocator.malloc (size + link_bytes) in
  let m = mem t in
  Sim.Memory.store m p (Sim.Memory.load m r);
  Sim.Memory.store m r p;
  p + link_bytes

let alloc_common t r size =
  Sim.Cost.within3 (cost t) Sim.Cost.Alloc alloc_body t r size

let ralloc t r size =
  let user = alloc_common t r size in
  Sim.Memory.clear (mem t) user ((size + 3) land lnot 3);
  count_object t r size;
  user

let rstralloc t r size =
  let user = alloc_common t r size in
  count_object t r size;
  user

let rec free_all t m p =
  if p <> 0 then begin
    let next = Sim.Memory.load m p in
    t.alloc.Alloc.Allocator.free p;
    free_all t m next
  end

let delete_body t r =
  let m = mem t in
  free_all t m (Sim.Memory.load m r);
  t.alloc.Alloc.Allocator.free r

let deleteregion t r =
  Sim.Cost.within (cost t) Sim.Cost.Alloc delete_body t r;
  let c = Alloc.Int_table.find t.regions r in
  Alloc.Int_table.remove t.regions r;
  Alloc.Stats.on_group_free t.req ~count:c.objects ~bytes:c.bytes;
  t.overhead <- t.overhead - record_bytes - (c.objects * link_bytes)
