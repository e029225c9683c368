type violation =
  | Overflow of { user : int; size : int; addr : int }
  | Underflow of { user : int; size : int; addr : int }
  | Use_after_free of { user : int; size : int; addr : int }
  | Double_free of int
  | Invalid_free of int

exception Violation of violation

let pp_violation ppf = function
  | Overflow { user; size; addr } ->
      Fmt.pf ppf "overflow: rear redzone word %#x of block %#x (%d bytes) clobbered"
        addr user size
  | Underflow { user; size; addr } ->
      Fmt.pf ppf "underflow: front redzone word %#x of block %#x (%d bytes) clobbered"
        addr user size
  | Use_after_free { user; size; addr } ->
      Fmt.pf ppf "use-after-free: word %#x of freed block %#x (%d bytes) lost its poison"
        addr user size
  | Double_free user -> Fmt.pf ppf "double free of block %#x" user
  | Invalid_free user -> Fmt.pf ppf "invalid free of %#x (never allocated)" user

type config = { redzone_words : int; quarantine : int }

let default = { redzone_words = 2; quarantine = 64 }

type block = { user : int; size : int; base : int }

type t = {
  config : config;
  under : Alloc.Allocator.t;
  alloc : Alloc.Allocator.t;
  live : (int, block) Hashtbl.t;  (* user -> block *)
  dead : (int, block) Hashtbl.t;  (* quarantined, user -> block *)
  fifo : block Queue.t;  (* quarantine, oldest first *)
}

let round4 n = (n + 3) land lnot 3
let poison_word = 0xDEADBEEF

(* Address-derived redzone pattern: a copied or shifted redzone never
   matches at its new address. *)
let redzone_word addr = 0xFD000000 lor (addr land 0xFFFFFF)

let rz_bytes t = t.config.redzone_words * 4

(* All sanitizer accesses are cost-free peeks/pokes: simulated
   instruction and cycle counts are untouched. *)
let peek t = Sim.Memory.peek t.under.Alloc.Allocator.memory
let poke t = Sim.Memory.poke t.under.Alloc.Allocator.memory

let write_redzones t (b : block) =
  for i = 0 to t.config.redzone_words - 1 do
    let front = b.base + (i * 4) and rear = b.user + round4 b.size + (i * 4) in
    poke t front (redzone_word front);
    poke t rear (redzone_word rear)
  done

let check_redzones t (b : block) =
  for i = 0 to t.config.redzone_words - 1 do
    let front = b.base + (i * 4) and rear = b.user + round4 b.size + (i * 4) in
    if peek t front <> redzone_word front then
      raise (Violation (Underflow { user = b.user; size = b.size; addr = front }));
    if peek t rear <> redzone_word rear then
      raise (Violation (Overflow { user = b.user; size = b.size; addr = rear }))
  done

let poison t (b : block) =
  for w = 0 to (round4 b.size / 4) - 1 do
    poke t (b.user + (w * 4)) poison_word
  done

let check_poison t (b : block) =
  for w = 0 to (round4 b.size / 4) - 1 do
    let addr = b.user + (w * 4) in
    if peek t addr <> poison_word then
      raise (Violation (Use_after_free { user = b.user; size = b.size; addr }))
  done

let evict t =
  let b = Queue.pop t.fifo in
  check_redzones t b;
  check_poison t b;
  Hashtbl.remove t.dead b.user;
  t.under.Alloc.Allocator.free b.base

let malloc t size =
  Alloc.Allocator.check_size size;
  let base = t.under.Alloc.Allocator.malloc (round4 size + (2 * rz_bytes t)) in
  let b = { user = base + rz_bytes t; size; base } in
  write_redzones t b;
  Hashtbl.replace t.live b.user b;
  b.user

let free t user =
  match Hashtbl.find_opt t.live user with
  | Some b ->
      check_redzones t b;
      poison t b;
      Hashtbl.remove t.live user;
      Hashtbl.replace t.dead user b;
      Queue.push b t.fifo;
      if Queue.length t.fifo > t.config.quarantine then evict t
  | None ->
      if Hashtbl.mem t.dead user then raise (Violation (Double_free user))
      else raise (Violation (Invalid_free user))

let usable_size t user =
  match Hashtbl.find_opt t.live user with
  | Some b -> round4 b.size
  | None -> t.under.Alloc.Allocator.usable_size user

let check t =
  Hashtbl.iter (fun _ b -> check_redzones t b) t.live;
  Queue.iter
    (fun b ->
      check_redzones t b;
      check_poison t b)
    t.fifo;
  t.under.Alloc.Allocator.check_heap ()

let flush t = while not (Queue.is_empty t.fifo) do evict t done

let iter_tracked t f =
  Hashtbl.iter (fun _ b -> f b.base) t.live;
  Queue.iter (fun b -> f b.base) t.fifo

let iter_redzone_words t f =
  let zones (b : block) =
    for i = 0 to t.config.redzone_words - 1 do
      f (b.base + (i * 4));
      f (b.user + round4 b.size + (i * 4))
    done
  in
  Hashtbl.iter (fun _ b -> zones b) t.live;
  Queue.iter zones t.fifo

let wrap ?(config = default) under =
  let name = under.Alloc.Allocator.name ^ "+san" in
  let live = Hashtbl.create 256 and dead = Hashtbl.create 64 in
  let fifo = Queue.create () in
  let rec t =
    {
      config;
      under;
      alloc =
        {
          Alloc.Allocator.name;
          memory = under.memory;
          malloc = (fun size -> malloc t size);
          free = (fun user -> free t user);
          usable_size = (fun user -> usable_size t user);
          check_heap = (fun () -> check t);
          stats = under.stats;
        };
      live;
      dead;
      fifo;
    }
  in
  t

let allocator t = t.alloc
