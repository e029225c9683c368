type backend = Sun | Bsd | Lea | Gc

type mode =
  | Direct of backend
  | Emulated of backend
  | Region of { safe : bool }

let backend_name = function Sun -> "sun" | Bsd -> "bsd" | Lea -> "lea" | Gc -> "gc"

let mode_name = function
  | Direct b -> backend_name b
  | Emulated b -> "emu-" ^ backend_name b
  | Region { safe = true } -> "region"
  | Region { safe = false } -> "unsafe"

let all_modes =
  [
    Direct Sun;
    Direct Bsd;
    Direct Lea;
    Direct Gc;
    Emulated Sun;
    Emulated Bsd;
    Emulated Lea;
    Emulated Gc;
    Region { safe = true };
    Region { safe = false };
  ]

type region = int

(* The facade's one observer: a hook per operation, called after the
   simulated effect and charging nothing, so an observed run's
   measurements are identical to an unobserved one.  [lib/trace]
   supplies the recorder; keeping the type here lets the facade stay
   below lib/trace in the dependency order. *)
type sink = {
  on_malloc : size:int -> addr:int -> unit;
  on_free : addr:int -> unit;
  on_newregion : r:region -> unit;
  on_ralloc : r:region -> layout:Regions.Cleanup.layout -> addr:int -> unit;
  on_rstralloc : r:region -> size:int -> addr:int -> unit;
  on_rarrayalloc :
    r:region -> n:int -> layout:Regions.Cleanup.layout -> addr:int -> unit;
  on_deleteregion : frame:int -> slot:int -> r:region -> ok:bool -> unit;
  on_frame_push : nslots:int -> ptr_slots:int list -> unit;
  on_frame_pop : unit -> unit;
  on_store : addr:int -> int -> unit;
  on_store_block : addr:int -> int array -> unit;
  on_store_bytes : addr:int -> string -> unit;
  on_clear : addr:int -> bytes:int -> unit;
  on_store_ptr : addr:int -> int -> unit;
  on_set_local : frame:int -> slot:int -> int -> unit;
  on_set_local_ptr : frame:int -> slot:int -> int -> unit;
  on_gc_roots : int array -> unit;
  on_work : int -> unit;
  on_set_mutator : mid:int -> bump:bool -> unit;
  phase : 'a. string -> (unit -> 'a) -> 'a;
  site : 'a. string -> (unit -> 'a) -> 'a;
}

let null_sink =
  {
    on_malloc = (fun ~size:_ ~addr:_ -> ());
    on_free = (fun ~addr:_ -> ());
    on_newregion = (fun ~r:_ -> ());
    on_ralloc = (fun ~r:_ ~layout:_ ~addr:_ -> ());
    on_rstralloc = (fun ~r:_ ~size:_ ~addr:_ -> ());
    on_rarrayalloc = (fun ~r:_ ~n:_ ~layout:_ ~addr:_ -> ());
    on_deleteregion = (fun ~frame:_ ~slot:_ ~r:_ ~ok:_ -> ());
    on_frame_push = (fun ~nslots:_ ~ptr_slots:_ -> ());
    on_frame_pop = (fun () -> ());
    on_store = (fun ~addr:_ _ -> ());
    on_store_block = (fun ~addr:_ _ -> ());
    on_store_bytes = (fun ~addr:_ _ -> ());
    on_clear = (fun ~addr:_ ~bytes:_ -> ());
    on_store_ptr = (fun ~addr:_ _ -> ());
    on_set_local = (fun ~frame:_ ~slot:_ _ -> ());
    on_set_local_ptr = (fun ~frame:_ ~slot:_ _ -> ());
    on_gc_roots = (fun _ -> ());
    on_work = (fun _ -> ());
    on_set_mutator = (fun ~mid:_ ~bump:_ -> ());
    phase = (fun _ f -> f ());
    site = (fun _ f -> f ());
  }

(* The tracer's facade events.  Page maps, the write barrier and
   collections happen below the facade and reach the tracer through
   the memory instead.  An emulated array takes whole strides, as its
   malloc does. *)
let tracer_sink tr mode =
  let array_bytes n layout =
    match mode with
    | Emulated _ -> n * Regions.Cleanup.stride layout
    | Direct _ | Region _ -> n * layout.Regions.Cleanup.size_bytes
  in
  {
    null_sink with
    on_malloc = (fun ~size ~addr -> Obs.Tracer.malloc tr ~addr ~bytes:size);
    on_free = (fun ~addr -> Obs.Tracer.free tr ~addr);
    on_newregion = (fun ~r -> Obs.Tracer.region_create tr r);
    on_ralloc =
      (fun ~r:_ ~layout ~addr ->
        Obs.Tracer.ralloc tr ~addr ~bytes:layout.Regions.Cleanup.size_bytes);
    on_rstralloc =
      (fun ~r:_ ~size ~addr -> Obs.Tracer.ralloc tr ~addr ~bytes:size);
    on_rarrayalloc =
      (fun ~r:_ ~n ~layout ~addr ->
        Obs.Tracer.ralloc tr ~addr ~bytes:(array_bytes n layout));
    on_deleteregion =
      (fun ~frame:_ ~slot:_ ~r ~ok ->
        Obs.Tracer.region_delete tr ~deleted:ok r);
    on_work = (fun _ -> Obs.Tracer.tick tr);
    phase = (fun name f -> Obs.Tracer.phase tr name f);
    site = (fun name f -> Obs.Tracer.site tr name f);
  }

(* The one manager a facade drives.  Only [Malloc]'s allocator table
   records exactly the program's mallocs and frees, so it is the
   requested table: one address table per block, not two.  The
   collector's frees land at sweeps, so its logical frees go to a
   table of its own; the emulation keeps its own books; and the region
   library's objects leave [req] only after the sink has seen their
   delete (see {!deleteregion}), so that table is the facade's too. *)
type manager =
  | Malloc of Alloc.Allocator.t  (* Sun, BSD, Lea *)
  | Collector of { alloc : Alloc.Allocator.t; req : Alloc.Stats.t }
  | Emulator of Regions.Emulation.t
  | Library of { lib : Regions.Region.t; req : Alloc.Stats.t }

type t = {
  mode : mode;
  mem : Sim.Memory.t;
  cost : Sim.Cost.t;  (* [Sim.Memory.cost mem] *)
  mut : Regions.Mutator.t;
  manager : manager;
  root_providers : ((int -> unit) -> unit) list ref;
  sink : sink option;
}

let requested_stats t =
  match t.manager with
  | Malloc a -> a.Alloc.Allocator.stats
  | Collector { req; _ } | Library { req; _ } -> req
  | Emulator e -> Regions.Emulation.requested e

let os_bytes t =
  match t.manager with
  | Malloc a | Collector { alloc = a; _ } ->
      Alloc.Stats.os_bytes a.Alloc.Allocator.stats
  | Emulator e ->
      Alloc.Stats.os_bytes (Regions.Emulation.allocator e).Alloc.Allocator.stats
  | Library { lib; _ } -> Regions.Region.os_bytes lib

(* The tracer's counter snapshot.  It reads counters without charging
   the simulation: the sampler and profiler are observers, never
   participants. *)
let probe t () =
  let c = t.cost in
  let l1_hits, l1_misses, l2_misses, stores =
    match Sim.Memory.cache t.mem with
    | Some ca ->
        ( Sim.Cache.l1_hits ca,
          Sim.Cache.l1_misses ca,
          Sim.Cache.l2_misses ca,
          Sim.Cache.stores ca )
    | None -> (0, 0, 0, 0)
  in
  {
    Obs.Sampler.base_instrs = Sim.Cost.base_instrs c;
    mem_instrs = Sim.Cost.memory_instrs c;
    read_stalls = Sim.Cost.read_stall_cycles c;
    write_stalls = Sim.Cost.write_stall_cycles c;
    live_bytes = Alloc.Stats.live_bytes (requested_stats t);
    os_bytes = os_bytes t;
    l1_hits;
    l1_misses;
    l2_misses;
    stores;
  }

type observer = Tracer of Obs.Tracer.t | Sink of sink

let create ?machine ?(with_cache = true) ?(offset_regions = true) ?observer
    ?gc_roots mode =
  let mem = Sim.Memory.create ?machine ~with_cache () in
  (* Attach the tracer before any manager runs so page mapping and GC
     events from setup are observed too; its facade events come
     through its sink. *)
  let sink =
    match observer with
    | Some (Tracer tr) ->
        Sim.Memory.set_tracer mem tr;
        Some (tracer_sink tr mode)
    | Some (Sink s) -> Some s
    | None -> None
  in
  let mut = Regions.Mutator.create mem in
  let providers = ref [] in
  (* Three root regimes: live iteration (unobserved runs); live
     iteration snapshotted per collection for the sink (the recorder
     writes it — the collector only asks for roots when it collects, so
     one snapshot per collection suffices and replays exactly);
     snapshots fed back from a trace
     (replay, where the recorded program's bookkeeping no longer
     exists).  Snapshot order is iteration order, so marking visits
     addresses identically in all three. *)
  let roots f =
    match gc_roots with
    | Some next -> Array.iter f (next ())
    | None -> (
        let live f =
          Regions.Mutator.iter_roots mut f;
          List.iter (fun prov -> prov f) !providers
        in
        match sink with
        | None -> live f
        | Some s ->
            let buf = ref [] in
            live (fun v -> buf := v :: !buf);
            let arr = Array.of_list (List.rev !buf) in
            s.on_gc_roots arr;
            Array.iter f arr)
  in
  let allocator = function
    | Sun -> Alloc.Sun.create mem
    | Bsd -> Alloc.Bsd.create mem
    | Lea -> Alloc.Lea.create mem
    | Gc -> fst (Gcsim.Boehm.create ~roots mem)
  in
  let manager =
    match mode with
    | Direct Gc -> Collector { alloc = allocator Gc; req = Alloc.Stats.create () }
    | Direct b -> Malloc (allocator b)
    | Emulated b -> Emulator (Regions.Emulation.create (allocator b))
    | Region { safe } ->
        let cleanups = Regions.Cleanup.create () in
        Library
          {
            lib = Regions.Region.create ~safe ~offset_regions cleanups mut;
            req = Alloc.Stats.create ();
          }
  in
  let t =
    {
      mode;
      mem;
      cost = Sim.Memory.cost mem;
      mut;
      manager;
      root_providers = providers;
      sink;
    }
  in
  (match observer with
  | Some (Tracer tr) -> Obs.Tracer.set_probe tr (probe t)
  | Some (Sink _) | None -> ());
  t

(* Register extra GC roots: the addresses a workload's own bookkeeping
   keeps live — the stand-in for the C locals the conservative
   collector would scan.  Harmless in non-GC modes. *)
let add_roots t prov = t.root_providers := prov :: !(t.root_providers)

let mode t = t.mode

let kind t =
  match t.mode with Direct _ -> `Malloc | Emulated _ | Region _ -> `Region

let memory t = t.mem
let mutator t = t.mut
let cost t = t.cost

(* Sink dispatch: each entry point matches on [t.sink] once, inline —
   a helper taking the hook as a closure would allocate it per call,
   observed or not, on the workloads' hottest paths.  [frame_index]
   resolves a frame value to its stack depth (the form a trace can
   name), searching from the top since workloads almost always touch
   the current frame. *)
let frame_index t fr =
  let rec go i =
    if i < 0 then invalid_arg "Api: observed frame is not on the stack"
    else if Regions.Mutator.frame t.mut i == fr then i
    else go (i - 1)
  in
  go (Regions.Mutator.depth t.mut - 1)

(* The access wrappers take every argument: [let load t =
   Sim.Memory.load t.mem] would build a closure per call, since a
   partial application builds a closure even where the function it
   applies inlines.  [load], [store], [load_byte] and [work] carry
   [@inline], as do the [Sim.Memory] accesses they wrap, so a
   workload's simulated access compiles to no call (DESIGN §5h). *)
let[@inline] load t addr = Sim.Memory.load t.mem addr

let[@inline] store t addr v =
  Sim.Memory.store t.mem addr v;
  match t.sink with Some s -> s.on_store ~addr v | None -> ()

let[@inline] load_byte t addr = Sim.Memory.load_byte t.mem addr

let load_block t addr n = Sim.Memory.load_block t.mem addr n

let store_block t addr words =
  Sim.Memory.store_block t.mem addr words;
  match t.sink with Some s -> s.on_store_block ~addr words | None -> ()

let store_bytes t addr s =
  Sim.Memory.store_bytes t.mem addr s;
  match t.sink with Some k -> k.on_store_bytes ~addr s | None -> ()

let clear t addr bytes =
  Sim.Memory.clear t.mem addr bytes;
  match t.sink with Some s -> s.on_clear ~addr ~bytes | None -> ()

let store_ptr t ~addr v =
  (match t.manager with
  | Library { lib; _ } -> Regions.Region.write_ptr lib ~addr v
  | Malloc _ | Collector _ | Emulator _ -> Sim.Memory.store t.mem addr v);
  match t.sink with Some s -> s.on_store_ptr ~addr v | None -> ()

let[@inline] work t n =
  Sim.Cost.instr t.cost n;
  match t.sink with Some s -> s.on_work n | None -> ()

let with_frame t ~nslots ~ptr_slots f =
  match t.sink with
  | None -> Regions.Mutator.with_frame t.mut ~nslots ~ptr_slots f
  | Some s ->
      s.on_frame_push ~nslots ~ptr_slots;
      let v = Regions.Mutator.with_frame t.mut ~nslots ~ptr_slots f in
      s.on_frame_pop ();
      v

let set_local t fr i v =
  Regions.Mutator.set_local t.mut fr i v;
  match t.sink with
  | Some s -> s.on_set_local ~frame:(frame_index t fr) ~slot:i v
  | None -> ()

let set_local_ptr t fr i v =
  (match t.manager with
  | Library { lib; _ } -> Regions.Region.set_local_ptr lib fr i v
  | Malloc _ | Collector _ | Emulator _ -> Regions.Mutator.set_local t.mut fr i v);
  match t.sink with
  | Some s -> s.on_set_local_ptr ~frame:(frame_index t fr) ~slot:i v
  | None -> ()

let get_local = Regions.Mutator.get_local

(* ------------------------------------------------------------------ *)
(* Mutator identity *)

(* Both calls are pure scheduling state — host-side, no simulated
   charge outside the region library's own documented costs — and both
   are recorded so a replay reproduces the allocation path (bump vs
   legacy) exactly. *)

let enable_bump t =
  (match t.manager with
  | Library { lib; _ } -> Regions.Region.enable_bump lib
  | Malloc _ | Collector _ | Emulator _ -> ());
  match t.sink with
  | Some s ->
      s.on_set_mutator ~mid:(Regions.Mutator.current_id t.mut) ~bump:true
  | None -> ()

let set_mutator t mid =
  Regions.Mutator.set_current_id t.mut mid;
  (match t.manager with
  | Library { lib; _ } -> Regions.Region.set_mutator lib mid
  | Malloc _ | Collector _ | Emulator _ -> ());
  match t.sink with
  | Some s ->
      s.on_set_mutator ~mid
        ~bump:
          (match t.manager with
          | Library { lib; _ } -> Regions.Region.bump_active lib
          | Malloc _ | Collector _ | Emulator _ -> false)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* malloc / free *)

let unsupported t what =
  invalid_arg (Fmt.str "%s is not available in mode %s" what (mode_name t.mode))

let malloc t size =
  let p =
    match t.manager with
    | Malloc a -> a.Alloc.Allocator.malloc size
    | Collector { alloc; req } ->
        let p = alloc.Alloc.Allocator.malloc size in
        Alloc.Stats.on_alloc req ~addr:p ~size;
        p
    | Emulator _ | Library _ -> unsupported t "malloc"
  in
  (match t.sink with Some s -> s.on_malloc ~size ~addr:p | None -> ());
  p

let free t addr =
  (match t.manager with
  | Malloc a -> a.Alloc.Allocator.free addr
  | Collector { req; _ } ->
      (* Frees are compiled out under the collector; only the logical
         accounting proceeds. *)
      Alloc.Stats.on_free req addr
  | Emulator _ | Library _ -> unsupported t "free");
  match t.sink with Some s -> s.on_free ~addr | None -> ()

(* ------------------------------------------------------------------ *)
(* Regions *)

(* Region objects are only ever freed with their region, so the
   region library's [req] records them without their addresses (see
   {!deleteregion}); the emulation keeps its own books. *)

let newregion t =
  let r =
    match t.manager with
    | Library { lib; _ } -> Regions.Region.newregion lib
    | Emulator e -> Regions.Emulation.newregion e
    | Malloc _ | Collector _ -> unsupported t "newregion"
  in
  (match t.sink with Some s -> s.on_newregion ~r | None -> ());
  r

let ralloc t r layout =
  let p =
    match t.manager with
    | Library { lib; req } ->
        let p = Regions.Region.ralloc lib r layout in
        Alloc.Stats.on_group_alloc req layout.Regions.Cleanup.size_bytes;
        p
    | Emulator e ->
        Regions.Emulation.ralloc e r layout.Regions.Cleanup.size_bytes
    | Malloc _ | Collector _ -> unsupported t "ralloc"
  in
  (match t.sink with Some s -> s.on_ralloc ~r ~layout ~addr:p | None -> ());
  p

let rstralloc t r size =
  let p =
    match t.manager with
    | Library { lib; req } ->
        let p = Regions.Region.rstralloc lib r size in
        Alloc.Stats.on_group_alloc req size;
        p
    | Emulator e -> Regions.Emulation.rstralloc e r size
    | Malloc _ | Collector _ -> unsupported t "rstralloc"
  in
  (match t.sink with Some s -> s.on_rstralloc ~r ~size ~addr:p | None -> ());
  p

(* An emulated array takes whole strides, as its malloc would. *)
let rarrayalloc t r ~n layout =
  let p =
    match t.manager with
    | Library { lib; req } ->
        let p = Regions.Region.rarrayalloc lib r ~n layout in
        Alloc.Stats.on_group_alloc req (n * layout.Regions.Cleanup.size_bytes);
        p
    | Emulator e ->
        Regions.Emulation.ralloc e r (n * Regions.Cleanup.stride layout)
    | Malloc _ | Collector _ -> unsupported t "rarrayalloc"
  in
  (match t.sink with
  | Some s -> s.on_rarrayalloc ~r ~n ~layout ~addr:p
  | None -> ());
  p

(* A delete pops no frames, so the frame resolved after it is the one
   the delete ran in. *)
let observe_delete t fr slot r ok =
  match t.sink with
  | Some s -> s.on_deleteregion ~frame:(frame_index t fr) ~slot ~r ~ok
  | None -> ()

(* Under [Library] a deleted region's objects leave [req] in one step,
   with the library's own per-region counts (read before the delete,
   which drops them), and only after the sink has seen the delete, so
   a sample it takes reads the live bytes the delete itself ran with.
   The emulation releases its objects inside its delete. *)
let deleteregion t fr slot =
  match t.manager with
  | Library { lib; req } ->
      let r = Regions.Mutator.get_local fr slot in
      let counts = Regions.Region.counts lib r in
      let ok = Regions.Region.deleteregion lib (Regions.Region.In_frame (fr, slot)) in
      observe_delete t fr slot r ok;
      (match counts with
      | Some c when ok ->
          Alloc.Stats.on_group_free req ~count:c.allocs ~bytes:c.bytes
      | _ -> ());
      ok
  | Emulator e ->
      let r = Regions.Mutator.get_local fr slot in
      Regions.Emulation.deleteregion e r;
      Regions.Mutator.set_local t.mut fr slot 0;
      observe_delete t fr slot r true;
      true
  | Malloc _ | Collector _ -> unsupported t "deleteregion"

(* ------------------------------------------------------------------ *)
(* Measurement *)

let region_lib t =
  match t.manager with
  | Library { lib; _ } -> Some lib
  | Malloc _ | Collector _ | Emulator _ -> None

let region_rstats t = Option.map Regions.Region.rstats (region_lib t)

let emulation_overhead_bytes t =
  match t.manager with
  | Emulator e -> Regions.Emulation.max_overhead_bytes e
  | Malloc _ | Collector _ | Library _ -> 0

let allocator t =
  match t.manager with
  | Malloc a | Collector { alloc = a; _ } -> Some a
  | Emulator e -> Some (Regions.Emulation.allocator e)
  | Library _ -> None

(* ------------------------------------------------------------------ *)
(* Observability *)

let phase t name f = match t.sink with Some s -> s.phase name f | None -> f ()
let site t name f = match t.sink with Some s -> s.site name f | None -> f ()
