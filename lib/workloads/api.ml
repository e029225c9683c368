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

(* Allocation-trace recorder: one callback per operation that a replay
   must reproduce.  The facade invokes these as pure observation —
   after the simulated effect, charging nothing — so a recorded run's
   measurements are identical to an unrecorded one.  [lib/trace]
   supplies the implementation; keeping the type here lets the facade
   stay below lib/trace in the dependency order. *)
type recorder = {
  rec_malloc : size:int -> addr:int -> unit;
  rec_free : addr:int -> unit;
  rec_newregion : r:region -> unit;
  rec_ralloc : r:region -> layout:Regions.Cleanup.layout -> addr:int -> unit;
  rec_rstralloc : r:region -> size:int -> addr:int -> unit;
  rec_rarrayalloc :
    r:region -> n:int -> layout:Regions.Cleanup.layout -> addr:int -> unit;
  rec_deleteregion : frame:int -> slot:int -> r:region -> ok:bool -> unit;
  rec_frame_push : nslots:int -> ptr_slots:int list -> unit;
  rec_frame_pop : unit -> unit;
  rec_store : addr:int -> int -> unit;
  rec_store_byte : addr:int -> int -> unit;
  rec_store_block : addr:int -> int array -> unit;
  rec_store_bytes : addr:int -> string -> unit;
  rec_clear : addr:int -> bytes:int -> unit;
  rec_store_ptr : addr:int -> int -> unit;
  rec_set_local : frame:int -> slot:int -> int -> unit;
  rec_set_local_ptr : frame:int -> slot:int -> int -> unit;
  rec_gc_roots : int array -> unit;
  rec_phase : string -> bool -> unit;
  rec_site : string -> bool -> unit;
  rec_set_mutator : mid:int -> bump:bool -> unit;
}

(* An emulated region's objects: their number and word-rounded bytes,
   released from [req] in one step when the region is deleted. *)
type emu_region = { mutable objects : int; mutable bytes : int }

type t = {
  mode : mode;
  mem : Sim.Memory.t;
  cost : Sim.Cost.t;  (* [Sim.Memory.cost mem] *)
  mut : Regions.Mutator.t;
  alloc : Alloc.Allocator.t option;  (* Direct and Emulated *)
  gc : Gcsim.Boehm.t option;
  emu : Regions.Emulation.t option;
  reg : Regions.Region.t option;
  req : Alloc.Stats.t;  (* program-requested accounting *)
  emu_regions : emu_region Alloc.Int_table.t;  (* Emulated only *)
  mutable emu_overhead : int;  (* current bytes of emulation bookkeeping *)
  mutable emu_overhead_max : int;
  root_providers : ((int -> unit) -> unit) list ref;
  tracer : Obs.Tracer.t;
  recorder : recorder option;
}

let create ?machine ?(with_cache = true) ?(globals_words = 1024)
    ?(offset_regions = true) ?(eager_locals = false) ?tracer ?recorder
    ?gc_roots mode =
  let mem = Sim.Memory.create ?machine ~with_cache () in
  (* Attach the tracer before any manager runs so region creation,
     page mapping and GC events from setup are observed too. *)
  (match tracer with Some tr -> Sim.Memory.set_tracer mem tr | None -> ());
  let mut = Regions.Mutator.create ~globals_words mem in
  let providers = ref [] in
  (* Three root regimes: live iteration (normal runs); live iteration
     snapshotted per collection (recording — the collector only asks
     for roots when it collects, so one snapshot per collection
     suffices and replays exactly); snapshots fed back from a trace
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
        match recorder with
        | None -> live f
        | Some r ->
            let buf = ref [] in
            live (fun v -> buf := v :: !buf);
            let arr = Array.of_list (List.rev !buf) in
            r.rec_gc_roots arr;
            Array.iter f arr)
  in
  let make_backend = function
    | Sun -> (Some (Alloc.Sun.create mem), None)
    | Bsd -> (Some (Alloc.Bsd.create mem), None)
    | Lea -> (Some (Alloc.Lea.create mem), None)
    | Gc ->
        let a, g = Gcsim.Boehm.create ~roots mem in
        (Some a, Some g)
  in
  let alloc, gc, emu, reg =
    match mode with
    | Direct b ->
        let a, g = make_backend b in
        (a, g, None, None)
    | Emulated b ->
        let a, g = make_backend b in
        (a, g, Some (Regions.Emulation.create (Option.get a)), None)
    | Region { safe } ->
        let cleanups = Regions.Cleanup.create () in
        ( None,
          None,
          None,
          Some
            (Regions.Region.create ~safe ~offset_regions ~eager_locals cleanups
               mut) )
  in
  let t =
    {
      mode;
      mem;
      cost = Sim.Memory.cost mem;
      mut;
      alloc;
      gc;
      emu;
      reg;
      req = Alloc.Stats.create ();
      emu_regions = Alloc.Int_table.create 64;
      emu_overhead = 0;
      emu_overhead_max = 0;
      root_providers = providers;
      tracer = Sim.Memory.tracer mem;
      recorder;
    }
  in
  (* The probe reads counters without charging the simulation: the
     sampler and profiler are observers, never participants. *)
  Obs.Tracer.set_probe t.tracer (fun () ->
      let c = Sim.Memory.cost mem in
      let l1_hits, l1_misses, l2_misses, stores =
        match Sim.Memory.cache mem with
        | Some ca ->
            ( Sim.Cache.l1_hits ca,
              Sim.Cache.l1_misses ca,
              Sim.Cache.l2_misses ca,
              Sim.Cache.stores ca )
        | None -> (0, 0, 0, 0)
      in
      let os_bytes =
        match (t.alloc, t.reg) with
        | Some a, _ -> Alloc.Stats.os_bytes a.Alloc.Allocator.stats
        | None, Some lib -> Regions.Region.os_bytes lib
        | None, None -> 0
      in
      {
        Obs.Sampler.base_instrs = Sim.Cost.base_instrs c;
        mem_instrs = Sim.Cost.memory_instrs c;
        read_stalls = Sim.Cost.read_stall_cycles c;
        write_stalls = Sim.Cost.write_stall_cycles c;
        live_bytes = Alloc.Stats.live_bytes t.req;
        os_bytes;
        l1_hits;
        l1_misses;
        l2_misses;
        stores;
      });
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

(* Recorder dispatch.  [recd] is a single cold branch when recording is
   off; [frame_index] resolves a frame value to its stack depth (the
   form a trace can name), searching from the top since workloads
   almost always touch the current frame.  The store-family and
   allocation entry points below match on [t.recorder] inline instead
   of going through [recd]: passing [recd] a closure would allocate it
   per call, recording or not, and those calls sit on the workloads'
   hottest paths. *)
let recd t f = match t.recorder with Some r -> f r | None -> ()

let frame_index t fr =
  let rec go i =
    if i < 0 then invalid_arg "Api: recorded frame is not on the stack"
    else if Regions.Mutator.frame t.mut i == fr then i
    else go (i - 1)
  in
  go (Regions.Mutator.depth t.mut - 1)

(* The access wrappers take every argument: [let load t =
   Sim.Memory.load t.mem] would build a closure per call, since a
   partial application builds a closure even where the function it
   applies inlines. *)
let load t addr = Sim.Memory.load t.mem addr
let load_signed t addr = Sim.Memory.load_signed t.mem addr

let store t addr v =
  Sim.Memory.store t.mem addr v;
  match t.recorder with Some r -> r.rec_store ~addr v | None -> ()

let load_byte t addr = Sim.Memory.load_byte t.mem addr

let store_byte t addr v =
  Sim.Memory.store_byte t.mem addr v;
  match t.recorder with Some r -> r.rec_store_byte ~addr v | None -> ()

let load_block t addr n = Sim.Memory.load_block t.mem addr n

let store_block t addr words =
  Sim.Memory.store_block t.mem addr words;
  match t.recorder with Some r -> r.rec_store_block ~addr words | None -> ()

let store_bytes t addr s =
  Sim.Memory.store_bytes t.mem addr s;
  match t.recorder with Some r -> r.rec_store_bytes ~addr s | None -> ()

let clear t addr bytes =
  Sim.Memory.clear t.mem addr bytes;
  match t.recorder with Some r -> r.rec_clear ~addr ~bytes | None -> ()

let store_ptr t ~addr v =
  (match t.reg with
  | Some lib -> Regions.Region.write_ptr lib ~addr v
  | None -> Sim.Memory.store t.mem addr v);
  match t.recorder with Some r -> r.rec_store_ptr ~addr v | None -> ()

let work t n =
  Sim.Cost.instr t.cost n;
  Obs.Tracer.tick t.tracer

let with_frame t ~nslots ~ptr_slots f =
  match t.recorder with
  | None -> Regions.Mutator.with_frame t.mut ~nslots ~ptr_slots f
  | Some r ->
      r.rec_frame_push ~nslots ~ptr_slots;
      let v = Regions.Mutator.with_frame t.mut ~nslots ~ptr_slots f in
      r.rec_frame_pop ();
      v

let set_local t fr i v =
  Regions.Mutator.set_local t.mut fr i v;
  match t.recorder with
  | Some r -> r.rec_set_local ~frame:(frame_index t fr) ~slot:i v
  | None -> ()

let set_local_ptr t fr i v =
  (match t.reg with
  | Some lib -> Regions.Region.set_local_ptr lib fr i v
  | None -> Regions.Mutator.set_local t.mut fr i v);
  match t.recorder with
  | Some r -> r.rec_set_local_ptr ~frame:(frame_index t fr) ~slot:i v
  | None -> ()

let get_local = Regions.Mutator.get_local

(* ------------------------------------------------------------------ *)
(* Mutator identity *)

(* Both calls are pure scheduling state — host-side, no simulated
   charge outside the region library's own documented costs — and both
   are recorded so a replay reproduces the allocation path (bump vs
   legacy) exactly. *)

let enable_bump t =
  (match t.reg with
  | Some lib -> Regions.Region.enable_bump lib
  | None -> ());
  recd t (fun r ->
      r.rec_set_mutator ~mid:(Regions.Mutator.current_id t.mut) ~bump:true)

let set_mutator t mid =
  Regions.Mutator.set_current_id t.mut mid;
  (match t.reg with
  | Some lib -> Regions.Region.set_mutator lib mid
  | None -> ());
  recd t (fun r ->
      r.rec_set_mutator ~mid
        ~bump:
          (match t.reg with
          | Some lib -> Regions.Region.bump_active lib
          | None -> false))

let mutator_id t = Regions.Mutator.current_id t.mut

(* ------------------------------------------------------------------ *)
(* malloc / free *)

let unsupported t what =
  invalid_arg (Fmt.str "%s is not available in mode %s" what (mode_name t.mode))

let malloc t size =
  match (t.mode, t.alloc) with
  | Direct _, Some a ->
      let p = a.Alloc.Allocator.malloc size in
      Alloc.Stats.on_alloc t.req ~addr:p ~size;
      Obs.Tracer.malloc t.tracer ~addr:p ~bytes:size;
      (match t.recorder with Some r -> r.rec_malloc ~size ~addr:p | None -> ());
      p
  | _ -> unsupported t "malloc"

let free t addr =
  match (t.mode, t.alloc) with
  | Direct Gc, Some _ ->
      (* Frees are compiled out under the collector; only the logical
         accounting proceeds. *)
      Alloc.Stats.on_free t.req addr;
      Obs.Tracer.free t.tracer ~addr;
      (match t.recorder with Some r -> r.rec_free ~addr | None -> ())
  | Direct _, Some a ->
      Alloc.Stats.on_free t.req addr;
      a.Alloc.Allocator.free addr;
      Obs.Tracer.free t.tracer ~addr;
      (match t.recorder with Some r -> r.rec_free ~addr | None -> ())
  | _ -> unsupported t "free"

(* ------------------------------------------------------------------ *)
(* Regions *)

(* Region objects are only ever freed with their region, so [req]
   records them without their addresses (see {!deleteregion}). *)
let track_object t addr size =
  Alloc.Stats.on_group_alloc t.req size;
  Obs.Tracer.ralloc t.tracer ~addr ~bytes:size

let bump_emu_overhead t bytes =
  t.emu_overhead <- t.emu_overhead + bytes;
  if t.emu_overhead > t.emu_overhead_max then t.emu_overhead_max <- t.emu_overhead

let track_emu_object t r addr size =
  track_object t addr size;
  let bytes = (size + 3) land lnot 3 in
  (match Alloc.Int_table.find t.emu_regions r with
  | e ->
      e.objects <- e.objects + 1;
      e.bytes <- e.bytes + bytes
  | exception Not_found ->
      Alloc.Int_table.replace t.emu_regions r { objects = 1; bytes });
  bump_emu_overhead t Regions.Emulation.overhead_per_object

let newregion t =
  let r =
    match (t.reg, t.emu) with
    | Some lib, _ -> Regions.Region.newregion lib
    | None, Some emu ->
        let r = Regions.Emulation.newregion emu in
        bump_emu_overhead t 12 (* region record + its malloc header *);
        Obs.Tracer.region_create t.tracer r;
        r
    | None, None -> unsupported t "newregion"
  in
  (match t.recorder with Some rc -> rc.rec_newregion ~r | None -> ());
  r

let ralloc t r layout =
  let p =
    match (t.reg, t.emu) with
    | Some lib, _ ->
        let p = Regions.Region.ralloc lib r layout in
        track_object t p layout.Regions.Cleanup.size_bytes;
        p
    | None, Some emu ->
        let p =
          Regions.Emulation.ralloc emu r layout.Regions.Cleanup.size_bytes
        in
        track_emu_object t r p layout.Regions.Cleanup.size_bytes;
        p
    | None, None -> unsupported t "ralloc"
  in
  (match t.recorder with
  | Some rc -> rc.rec_ralloc ~r ~layout ~addr:p
  | None -> ());
  p

let rstralloc t r size =
  let p =
    match (t.reg, t.emu) with
    | Some lib, _ ->
        let p = Regions.Region.rstralloc lib r size in
        track_object t p size;
        p
    | None, Some emu ->
        let p = Regions.Emulation.rstralloc emu r size in
        track_emu_object t r p size;
        p
    | None, None -> unsupported t "rstralloc"
  in
  (match t.recorder with
  | Some rc -> rc.rec_rstralloc ~r ~size ~addr:p
  | None -> ());
  p

let rarrayalloc t r ~n layout =
  let p =
    match (t.reg, t.emu) with
    | Some lib, _ ->
        let p = Regions.Region.rarrayalloc lib r ~n layout in
        track_object t p (n * layout.Regions.Cleanup.size_bytes);
        p
    | None, Some emu ->
        let bytes = n * Regions.Cleanup.stride layout in
        let p = Regions.Emulation.ralloc emu r bytes in
        track_emu_object t r p bytes;
        p
    | None, None -> unsupported t "rarrayalloc"
  in
  (match t.recorder with
  | Some rc -> rc.rec_rarrayalloc ~r ~n ~layout ~addr:p
  | None -> ());
  p

(* A deleted region's objects leave [req] in one step: under [Region]
   with the library's own per-region counts (read before the delete,
   which drops them), emulated with [emu_regions]. *)
let deleteregion t fr slot =
  (* The frame index is resolved before the delete: a successful
     delete cannot pop frames, but resolving first keeps the recorded
     order identical to the executed one. *)
  let fidx = match t.recorder with Some _ -> frame_index t fr | None -> 0 in
  match (t.reg, t.emu) with
  | Some lib, _ ->
      let r = Regions.Mutator.get_local fr slot in
      let counts = Regions.Region.counts lib r in
      let ok = Regions.Region.deleteregion lib (Regions.Region.In_frame (fr, slot)) in
      (match counts with
      | Some c when ok ->
          Alloc.Stats.on_group_free t.req ~count:c.allocs ~bytes:c.bytes
      | _ -> ());
      (match t.recorder with
      | Some rc -> rc.rec_deleteregion ~frame:fidx ~slot ~r ~ok
      | None -> ());
      ok
  | None, Some emu ->
      let r = Regions.Mutator.get_local fr slot in
      Regions.Emulation.deleteregion emu r;
      let objects =
        match Alloc.Int_table.find_opt t.emu_regions r with
        | Some e ->
            Alloc.Stats.on_group_free t.req ~count:e.objects ~bytes:e.bytes;
            Alloc.Int_table.remove t.emu_regions r;
            e.objects
        | None -> 0
      in
      t.emu_overhead <-
        t.emu_overhead - 12 - (objects * Regions.Emulation.overhead_per_object);
      Regions.Mutator.set_local t.mut fr slot 0;
      Obs.Tracer.region_delete t.tracer ~deleted:true r;
      (match t.recorder with
      | Some rc -> rc.rec_deleteregion ~frame:fidx ~slot ~r ~ok:true
      | None -> ());
      true
  | None, None -> unsupported t "deleteregion"

(* ------------------------------------------------------------------ *)
(* Measurement *)

let requested_stats t = t.req

let os_bytes t =
  match (t.mode, t.alloc, t.reg) with
  | _, Some a, _ -> Alloc.Stats.os_bytes a.Alloc.Allocator.stats
  | _, None, Some lib -> Regions.Region.os_bytes lib
  | _, None, None -> 0

let region_rstats t = Option.map Regions.Region.rstats t.reg
let emulation_overhead_bytes t = t.emu_overhead_max
let allocator t = t.alloc
let region_lib t = t.reg
let gc t = t.gc

(* ------------------------------------------------------------------ *)
(* Observability *)

let tracer t = t.tracer

let marked t mark name g =
  match t.recorder with
  | None -> g ()
  | Some r ->
      mark r name true;
      let v = g () in
      mark r name false;
      v

let phase t name f =
  marked t
    (fun r -> r.rec_phase)
    name
    (fun () -> Obs.Tracer.phase t.tracer name f)

let site t name f =
  marked t
    (fun r -> r.rec_site)
    name
    (fun () -> Obs.Tracer.site t.tracer name f)
