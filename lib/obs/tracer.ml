(* Per-site accumulator row: calls, allocs, bytes, base instrs, memory
   instrs, read stalls, write stalls. *)
let nacc = 7

(* Span-stack row: the four counters snapshotted at entry (base, mem,
   read stalls, write stalls) and the same four accumulated over
   already-closed children. *)
let nsnap = 4

type sink = kind:int -> time:int -> site:int -> a:int -> b:int -> unit

type t = {
  sink : sink;
  mutable events : int;
  sampler : Sampler.t;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;  (* site id -> name; id 0 is "no site" *)
  mutable nsites : int;
  mutable clock : unit -> int;
  mutable probe : (unit -> Sampler.probe) option;
  mutable acc : int array;  (* (nsites + 1) * nacc, grown on intern *)
  mutable st_site : int array;
  mutable st_snap : int array;  (* depth * nsnap *)
  mutable st_child : int array;  (* depth * nsnap *)
  mutable depth : int;
  mutable root_cycles : int;  (* cycles attributed to closed root spans *)
  folded : (string, int) Hashtbl.t;  (* "a;b;c" -> self cycles *)
  mutable finished : bool;
}

let create ?sample_interval sink =
  {
    sink;
    events = 0;
    sampler = Sampler.create ?interval:sample_interval ();
    ids = Hashtbl.create 64;
    names = Array.make 64 "";
    nsites = 0;
    clock = (fun () -> 0);
    probe = None;
    acc = Array.make (64 * nacc) 0;
    st_site = Array.make 64 0;
    st_snap = Array.make (64 * nsnap) 0;
    st_child = Array.make (64 * nsnap) 0;
    depth = 0;
    root_cycles = 0;
    folded = Hashtbl.create 64;
    finished = false;
  }

let events t = t.events
let sampler t = t.sampler
let set_clock t f = t.clock <- f
let set_probe t f = t.probe <- Some f

(* ------------------------------------------------------------------ *)
(* Site table *)

let site_id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
      let i = t.nsites + 1 in
      t.nsites <- i;
      if i >= Array.length t.names then begin
        let bigger = Array.make (Array.length t.names * 2) "" in
        Array.blit t.names 0 bigger 0 (Array.length t.names);
        t.names <- bigger
      end;
      if (i + 1) * nacc > Array.length t.acc then begin
        let bigger = Array.make (Array.length t.acc * 2) 0 in
        Array.blit t.acc 0 bigger 0 (Array.length t.acc);
        t.acc <- bigger
      end;
      t.names.(i) <- name;
      Hashtbl.replace t.ids name i;
      i

let site_name t i = if i >= 1 && i <= t.nsites then t.names.(i) else ""
let nsites t = t.nsites

(* ------------------------------------------------------------------ *)
(* Recording *)

let current_site t = if t.depth > 0 then t.st_site.(t.depth - 1) else 0

let read_probe t =
  match t.probe with Some f -> f () | None -> Sampler.zero_probe

let maybe_sample t ~now =
  if Sampler.due t.sampler ~now then
    match t.probe with
    | Some f -> Sampler.record t.sampler ~now (f ())
    | None -> ()

let emit t kind ~site ~a ~b =
  let time = t.clock () in
  t.sink ~kind:(Event.to_int kind) ~time ~site ~a ~b;
  t.events <- t.events + 1;
  maybe_sample t ~now:time

let tick t = maybe_sample t ~now:(t.clock ())

let region_create t r =
  emit t Event.Region_create ~site:(current_site t) ~a:r ~b:0

let region_delete t ~deleted r =
  emit t Event.Region_delete ~site:(current_site t) ~a:r
    ~b:(if deleted then 1 else 0)

let bump_alloc t ~bytes =
  let s = current_site t in
  if s > 0 then begin
    let o = s * nacc in
    t.acc.(o + 1) <- t.acc.(o + 1) + 1;
    t.acc.(o + 2) <- t.acc.(o + 2) + bytes
  end

let malloc t ~addr ~bytes =
  emit t Event.Malloc ~site:(current_site t) ~a:addr ~b:bytes;
  bump_alloc t ~bytes

let free t ~addr = emit t Event.Free ~site:(current_site t) ~a:addr ~b:0

let ralloc t ~addr ~bytes =
  emit t Event.Ralloc ~site:(current_site t) ~a:addr ~b:bytes;
  bump_alloc t ~bytes

let page_map t ~addr ~pages =
  emit t Event.Page_map ~site:(current_site t) ~a:addr ~b:pages

let barrier t ~addr ~hinted =
  emit t Event.Barrier ~site:(current_site t) ~a:addr
    ~b:(if hinted then 1 else 0)

let gc_begin t ~ordinal =
  emit t Event.Gc_begin ~site:(current_site t) ~a:ordinal ~b:0

let gc_end t ~live_bytes =
  emit t Event.Gc_end ~site:(current_site t) ~a:live_bytes ~b:0

(* ------------------------------------------------------------------ *)
(* Spans: phases and sites share one stack, so folded stacks show
   phase;site;... hierarchies and per-site self attribution nests. *)

let ensure_stack t =
  if t.depth >= Array.length t.st_site then begin
    let n = Array.length t.st_site * 2 in
    let site' = Array.make n 0 in
    let snap' = Array.make (n * nsnap) 0 in
    let child' = Array.make (n * nsnap) 0 in
    Array.blit t.st_site 0 site' 0 t.depth;
    Array.blit t.st_snap 0 snap' 0 (t.depth * nsnap);
    Array.blit t.st_child 0 child' 0 (t.depth * nsnap);
    t.st_site <- site';
    t.st_snap <- snap';
    t.st_child <- child'
  end

let span_enter t kind name =
  let id = site_id t name in
  emit t kind ~site:id ~a:0 ~b:0;
  ensure_stack t;
  let d = t.depth in
  let p = read_probe t in
  t.st_site.(d) <- id;
  let o = d * nsnap in
  t.st_snap.(o) <- p.Sampler.base_instrs;
  t.st_snap.(o + 1) <- p.Sampler.mem_instrs;
  t.st_snap.(o + 2) <- p.Sampler.read_stalls;
  t.st_snap.(o + 3) <- p.Sampler.write_stalls;
  t.st_child.(o) <- 0;
  t.st_child.(o + 1) <- 0;
  t.st_child.(o + 2) <- 0;
  t.st_child.(o + 3) <- 0;
  t.acc.((id * nacc) + 0) <- t.acc.((id * nacc) + 0) + 1;
  t.depth <- d + 1

let path t d =
  let b = Buffer.create 64 in
  for i = 0 to d do
    if i > 0 then Buffer.add_char b ';';
    Buffer.add_string b t.names.(t.st_site.(i))
  done;
  Buffer.contents b

let span_exit t kind =
  if t.depth > 0 then begin
    let d = t.depth - 1 in
    let id = t.st_site.(d) in
    emit t kind ~site:id ~a:0 ~b:0;
    let p = read_probe t in
    let o = d * nsnap in
    let tot0 = p.Sampler.base_instrs - t.st_snap.(o) in
    let tot1 = p.Sampler.mem_instrs - t.st_snap.(o + 1) in
    let tot2 = p.Sampler.read_stalls - t.st_snap.(o + 2) in
    let tot3 = p.Sampler.write_stalls - t.st_snap.(o + 3) in
    let self0 = tot0 - t.st_child.(o) in
    let self1 = tot1 - t.st_child.(o + 1) in
    let self2 = tot2 - t.st_child.(o + 2) in
    let self3 = tot3 - t.st_child.(o + 3) in
    let a = id * nacc in
    t.acc.(a + 3) <- t.acc.(a + 3) + self0;
    t.acc.(a + 4) <- t.acc.(a + 4) + self1;
    t.acc.(a + 5) <- t.acc.(a + 5) + self2;
    t.acc.(a + 6) <- t.acc.(a + 6) + self3;
    let self_cycles = self0 + self1 + self2 + self3 in
    if self_cycles <> 0 then begin
      let key = path t d in
      Hashtbl.replace t.folded key
        ((match Hashtbl.find_opt t.folded key with Some c -> c | None -> 0)
        + self_cycles)
    end;
    if d > 0 then begin
      let po = (d - 1) * nsnap in
      t.st_child.(po) <- t.st_child.(po) + tot0;
      t.st_child.(po + 1) <- t.st_child.(po + 1) + tot1;
      t.st_child.(po + 2) <- t.st_child.(po + 2) + tot2;
      t.st_child.(po + 3) <- t.st_child.(po + 3) + tot3
    end
    else t.root_cycles <- t.root_cycles + tot0 + tot1 + tot2 + tot3;
    t.depth <- d
  end

let phase t name f =
  span_enter t Event.Phase_begin name;
  Fun.protect ~finally:(fun () -> span_exit t Event.Phase_end) f

let site t name f =
  span_enter t Event.Site_enter name;
  Fun.protect ~finally:(fun () -> span_exit t Event.Site_exit) f

(* ------------------------------------------------------------------ *)
(* Readouts *)

type site_stat = {
  name : string;
  calls : int;
  allocs : int;
  bytes : int;
  base_instrs : int;
  mem_instrs : int;
  read_stalls : int;
  write_stalls : int;
}

let stat_cycles s = s.base_instrs + s.mem_instrs + s.read_stalls + s.write_stalls

let sites t =
  let rec go i acc =
    if i < 1 then acc
    else
      let o = i * nacc in
      go (i - 1)
        ({
           name = t.names.(i);
           calls = t.acc.(o);
           allocs = t.acc.(o + 1);
           bytes = t.acc.(o + 2);
           base_instrs = t.acc.(o + 3);
           mem_instrs = t.acc.(o + 4);
           read_stalls = t.acc.(o + 5);
           write_stalls = t.acc.(o + 6);
         }
        :: acc)
  in
  List.sort
    (fun a b ->
      match compare (stat_cycles b) (stat_cycles a) with
      | 0 -> compare a.name b.name
      | c -> c)
    (go t.nsites [])

let folded t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.folded [])

(* Close the run: take the final sample and account the cycles spent
   outside any span so folded stacks cover the whole run. *)
let finish t =
  if not t.finished then begin
    t.finished <- true;
    let now = t.clock () in
    (match t.probe with
    | Some f -> Sampler.finish t.sampler ~now (f ())
    | None -> ());
    let rest = now - t.root_cycles in
    if rest > 0 then
      Hashtbl.replace t.folded "(toplevel)"
        ((match Hashtbl.find_opt t.folded "(toplevel)" with
         | Some c -> c
         | None -> 0)
        + rest)
  end
