(* Multi-mutator server workload: N mutators time-sliced over the one
   simulated machine by [Regions.Sched], each serving a stream of
   requests with a per-request region lifecycle (the paper's section 4
   server idiom: open a region when the request arrives, allocate the
   request's objects into it, delete it when the response is sent).

   One scheduler step is one unit of request work — arrival, a single
   allocation, or teardown — deliberately finer than a whole request,
   so mutators hold open regions across handoffs and their refills
   interleave on the shared page map.  That is what the bump fast
   path's contention counters measure.

   Determinism: every mutator draws from its own splitmix stream
   seeded by (seed, mid), so its request shapes are independent of the
   interleaving; the interleaving itself is a pure function of (seed,
   quantum, N).  [run_sequential] drives the same mutator states to
   completion one after another with no scheduler and no mutator
   switching — the baseline the N=1 byte-identity property compares
   against. *)

type params = {
  mutators : int;
  requests : int;  (* total, distributed round-robin over mutators *)
  quantum : int;  (* scheduler base steps per turn *)
  seed : int;
  bump : bool;  (* enable the region bump fast path *)
}

let default_params =
  { mutators = 4; requests = 600; quantum = 16; seed = 4242; bump = true }

let large_params = { default_params with requests = 4800 }

type mutator_stat = {
  ms_served : int;
  ms_allocs : int;
  ms_bytes : int;  (* requested bytes *)
  ms_peak_live_bytes : int;  (* within a single request *)
  ms_steps : int;
  ms_quanta : int;
  ms_curve : int array;  (* live bytes sampled at each quantum end *)
}

type outcome = {
  served : int;
  allocs : int;
  bytes : int;
  checksum : int;  (* folds every allocation address: the bump-path
                      address-identity witness *)
  handoffs : int;
  interleave_hash : int;
  per_mutator : mutator_stat array;
  bump_stats : Regions.Region.bump_stats;
}

let zero_bump_stats =
  {
    Regions.Region.bs_hits = 0;
    bs_opens = 0;
    bs_closes = 0;
    bs_refills = 0;
    bs_contended_refills = 0;
  }

let fnv h v = ((h lxor v) * 0x100000001b3) land max_int

(* Request objects: linked 16-byte nodes (scanned, pointer-carrying)
   mixed with unscanned string buffers.  A node's word 0 holds an
   integer payload written with a plain store, so only word 4, the
   chain link, is a pointer field.  Were word 0 declared one too,
   cleanup would drop a reference count the plain store never took
   from whatever region the payload happened to address, and that
   region's own delete would then fail.  Only node links take the
   write barrier; strings are never stored through. *)
let node_layout = Regions.Cleanup.layout ~size_bytes:16 ~ptr_offsets:[ 4 ]

type mstate = {
  mid : int;
  fr : Regions.Mutator.frame;
  rng : Sim.Rng.t;
  mutable todo : int;  (* requests not yet started *)
  mutable in_request : bool;
  mutable left : int;  (* allocations left in the current request *)
  mutable prev : int;  (* previous node of the current request *)
  mutable live : int list;  (* malloc kinds: the request's blocks *)
  mutable live_bytes : int;
  mutable served : int;
  mutable allocs : int;
  mutable bytes : int;
  mutable peak_live : int;
  mutable curve : int list;  (* newest first *)
}

let quota params mid =
  let n = params.mutators in
  (params.requests / n) + (if mid < params.requests mod n then 1 else 0)

let fresh_state params fr mid =
  {
    mid;
    fr;
    rng = Sim.Rng.create (params.seed + ((mid + 1) * 0x9E3779B1));
    todo = quota params mid;
    in_request = false;
    left = 0;
    prev = 0;
    live = [];
    live_bytes = 0;
    served = 0;
    allocs = 0;
    bytes = 0;
    peak_live = 0;
    curve = [];
  }

(* One unit of request work; [false] once the mutator's stream is
   drained.  The request body alternates small linked nodes with
   larger string buffers, touching each allocation so the cache
   simulation sees real traffic. *)
let step api checksum st =
  if not st.in_request then
    if st.todo = 0 then false
    else begin
      st.todo <- st.todo - 1;
      st.in_request <- true;
      (* Every eighth request is a batch (a report, a bulk import):
         enough allocations to span pages, which is what drives the
         bump path's refills — and, interleaved with other mutators'
         open alloc regions, its contention counter. *)
      st.left <-
        (if st.served land 7 = 7 then 200 + Sim.Rng.int st.rng 200
         else 3 + Sim.Rng.int st.rng 12);
      st.prev <- 0;
      st.live_bytes <- 0;
      Api.work api 40 (* parse the request *);
      (match Api.kind api with
      | `Region ->
          let r = Api.newregion api in
          Api.set_local_ptr api st.fr 0 r
      | `Malloc -> ());
      true
    end
  else if st.left > 0 then begin
    st.left <- st.left - 1;
    Api.work api 15 (* handler work between allocations *);
    let big = Sim.Rng.int st.rng 4 = 0 in
    let size = if big then 8 + Sim.Rng.int st.rng 120 else 16 in
    let addr =
      match Api.kind api with
      | `Region ->
          let r = Api.get_local st.fr 0 in
          if big then Api.rstralloc api r size
          else Api.ralloc api r node_layout
      | `Malloc ->
          let p = Api.malloc api size in
          st.live <- p :: st.live;
          p
    in
    Api.store api addr (st.mid lxor st.served);
    if not big then begin
      (* Chain the request's nodes: a pointer store within the region,
         which is exactly the barrier the paper charges. *)
      if st.prev <> 0 then Api.store_ptr api ~addr:(addr + 4) st.prev;
      st.prev <- addr
    end;
    st.allocs <- st.allocs + 1;
    st.bytes <- st.bytes + size;
    st.live_bytes <- st.live_bytes + size;
    if st.live_bytes > st.peak_live then st.peak_live <- st.live_bytes;
    checksum := fnv !checksum (addr lxor (st.mid * 131));
    true
  end
  else begin
    (* Respond and tear the request down. *)
    Api.work api 40;
    (match Api.kind api with
    | `Region ->
        if not (Api.deleteregion api st.fr 0) then
          failwith "Server: request region still referenced at teardown"
    | `Malloc ->
        List.iter (Api.free api) st.live;
        st.live <- []);
    st.in_request <- false;
    st.served <- st.served + 1;
    true
  end

(* Push one two-slot frame per mutator (slot 0 holds the request
   region's handle), innermost last, and run [k] over the array.  The
   frames stay live for the whole run and pop LIFO on the way out. *)
let with_mutator_frames api n k =
  let rec go acc i =
    if i = n then k (Array.of_list (List.rev acc))
    else
      Api.with_frame api ~nslots:2 ~ptr_slots:[ 0 ] (fun fr ->
          go (fr :: acc) (i + 1))
  in
  go [] 0

let finish api states sched_stats checksum =
  let lib_stats =
    match Api.region_lib api with
    | Some lib -> Regions.Region.bump_stats lib
    | None -> zero_bump_stats
  in
  let per_mutator =
    Array.mapi
      (fun i st ->
        {
          ms_served = st.served;
          ms_allocs = st.allocs;
          ms_bytes = st.bytes;
          ms_peak_live_bytes = st.peak_live;
          ms_steps =
            (match sched_stats with
            | Some (s : Regions.Sched.stats) -> s.steps.(i)
            | None -> st.allocs + (2 * st.served));
          ms_quanta =
            (match sched_stats with
            | Some s -> s.quanta.(i)
            | None -> 1);
          ms_curve = Array.of_list (List.rev st.curve);
        })
      states
  in
  {
    served = Array.fold_left (fun a st -> a + st.served) 0 states;
    allocs = Array.fold_left (fun a st -> a + st.allocs) 0 states;
    bytes = Array.fold_left (fun a st -> a + st.bytes) 0 states;
    checksum = !checksum;
    handoffs =
      (match sched_stats with Some s -> s.handoffs | None -> 0);
    interleave_hash =
      (match sched_stats with Some s -> s.interleave_hash | None -> 0);
    per_mutator;
    bump_stats = lib_stats;
  }

let validate params =
  if params.mutators < 1 then invalid_arg "Server: mutators must be >= 1";
  if params.requests < 0 then invalid_arg "Server: requests must be >= 0";
  if params.quantum < 1 then invalid_arg "Server: quantum must be >= 1"

(* The scheduled engine.  [on_switch] announces every handoff to the
   facade (and through it to the region library and any recorder); the
   mutator being switched out samples its live bytes into its heap
   curve. *)
let run api params =
  validate params;
  let n = params.mutators in
  with_mutator_frames api n (fun frames ->
      if params.bump then Api.enable_bump api;
      let states = Array.mapi (fun i fr -> fresh_state params fr i) frames in
      (match Api.kind api with
      | `Malloc ->
          Api.add_roots api (fun f ->
              Array.iter (fun st -> List.iter f st.live) states)
      | `Region -> ());
      let checksum = ref 0x5e21 in
      let current = ref 0 in
      let tasks =
        Array.map
          (fun st ->
            {
              Regions.Sched.name = Printf.sprintf "mutator-%d" st.mid;
              weight = 1;
              step = (fun () -> step api checksum st);
            })
          states
      in
      let on_switch i =
        let prev = states.(!current) in
        prev.curve <- prev.live_bytes :: prev.curve;
        current := i;
        Api.set_mutator api i
      in
      let stats =
        Regions.Sched.run ~seed:params.seed ~quantum:params.quantum ~on_switch
          tasks
      in
      finish api states (Some stats) checksum)

(* The unscheduled baseline: identical mutator states driven to
   completion one after another, never touching the scheduler, the
   mutator register or the bump machinery.  With N=1 this is the
   legacy single-mutator program, byte for byte. *)
let run_sequential api params =
  validate params;
  with_mutator_frames api params.mutators (fun frames ->
      let states = Array.mapi (fun i fr -> fresh_state params fr i) frames in
      (match Api.kind api with
      | `Malloc ->
          Api.add_roots api (fun f ->
              Array.iter (fun st -> List.iter f st.live) states)
      | `Region -> ());
      let checksum = ref 0x5e21 in
      Array.iter
        (fun st ->
          while step api checksum st do
            ()
          done)
        states;
      finish api states None checksum)
