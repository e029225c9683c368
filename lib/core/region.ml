type region = int
type rptr = In_frame of Mutator.frame * int | In_memory of int

(* Region structure layout (Figure 4 of the paper, plus the offset of
   the first object for the region scan):
     +0  reference count
     +4  normal allocator: current page
     +8  normal allocator: allocation offset within that page
     +12 string allocator: current page
     +16 string allocator: allocation offset
     +20 scan start offset within the region's first page
   Each page's word 0 links to the previously filled page (0 ends the
   list); objects start at offset 4. *)

let struct_bytes = 24
let off_rc = 0
let off_npage = 4
let off_nfrom = 8
let off_spage = 12
let off_sfrom = 16
let off_scan = 20
let page_bytes = 4096
let round4 n = (n + 3) land lnot 3

(* Per-mutator allocation region, after SBCL's gencgc
   [alloc_region]: a mutator-local cache of one region's normal
   allocator (current page + free offset) held outside simulated
   memory, so the inline allocation fast path is a bounds check and a
   bump — no loads or stores of the region structure per object.  The
   structure's [off_npage] chain in simulated memory is kept accurate
   at every refill (page links are shared state: the region scan and
   the page map read them), while [off_nfrom] and the end-of-objects
   marker are written back only when the alloc region closes. *)
type alloc_region = {
  mutable ar_region : int;  (* region this cache is open against; 0 = closed *)
  mutable ar_page : int;  (* cached head page of the normal allocator *)
  mutable ar_free : int;  (* free offset within [ar_page] *)
}

type bump_stats = {
  bs_hits : int;
  bs_opens : int;
  bs_closes : int;
  bs_refills : int;
  bs_contended_refills : int;
}

(* The whole multi-mutator bump state.  Allocated lazily by
   {!enable_bump}: a library instance that never enables it takes the
   legacy allocation path byte-for-byte. *)
type bump = {
  mutable cur : int;  (* current mutator id *)
  mutable ars : alloc_region array;  (* mutator id -> its alloc region *)
  mutable open_count : int;  (* alloc regions currently open *)
  mutable hits : int;
  mutable opens : int;
  mutable closes : int;
  mutable refills : int;
  mutable contended_refills : int;
      (* refills taken while another mutator also holds an open alloc
         region — both are racing the same page pool *)
}

(* Host-side record of one live region, kept at the index of the
   region's first page in [hosts] (the region structure lives in that
   page, so the index is [r lsr 12]).  Its counts are also what
   deletion releases from [stats], in one step: region objects are
   never freed one at a time, so [stats] keeps no address of them. *)
type host = {
  region : region;
  counts : Rstats.counts;
  mutable large : (int * int) list;  (* large-object extents: (addr, pages) *)
}

type t = {
  mem : Sim.Memory.t;
  mutator : Mutator.t;
  cleanups : Cleanup.t;
  safe : bool;
  offset_regions : bool;
  eager_locals : bool;
  stats : Alloc.Stats.t;
  rstats : Rstats.t;
  mutable pool : int list;  (* free single pages *)
  mutable pool_len : int;
  mutable free_blocks : (int * int) list;  (* free contiguous (addr, pages>=2) *)
  mutable block_pages : int;  (* total pages held in [free_blocks] *)
  mutable pages_mapped : int;
  mutable page_map : int array;  (* page number -> region address *)
  mutable hosts : host option array;  (* page number -> region starting there *)
  mutable regions_created : int;
  mutable bump : bump option;  (* multi-mutator fast path; None = legacy *)
  mutable mutator_id : int;  (* current mutator identity (0 until set) *)
}

let memory t = t.mem
let mutator t = t.mutator
let cleanups t = t.cleanups
let is_safe t = t.safe
let stats t = t.stats
let rstats t = t.rstats
let cost t = Sim.Memory.cost t.mem

let os_bytes t =
  (* Paper section 4.1: eight bytes per page for the page map and the
     page list (our list links live in the pages themselves, so we
     count the full eight here). *)
  Alloc.Stats.os_bytes t.stats + (8 * t.pages_mapped)

let live_pages t =
  (t.pages_mapped - t.pool_len - t.block_pages)

let pool_pages t = t.pool_len

(* ------------------------------------------------------------------ *)
(* Page map *)

let ensure_page_map t pageno =
  let n = Array.length t.page_map in
  if pageno >= n then begin
    let n' = max (n * 2) (pageno + 1) in
    let bigger = Array.make n' 0 in
    Array.blit t.page_map 0 bigger 0 n;
    t.page_map <- bigger;
    let hosts = Array.make n' None in
    Array.blit t.hosts 0 hosts 0 n;
    t.hosts <- hosts
  end

let set_page_region t page r =
  let pageno = page lsr 12 in
  ensure_page_map t pageno;
  t.page_map.(pageno) <- r

(* Cost-free lookup; callers charge explicitly (the paper's barrier
   instruction counts include the regionof lookups).  Values with the
   low bits set cannot be object addresses (objects are word-aligned):
   dynamically-typed clients store tagged immediates in pointer
   fields, and those must never perturb reference counts. *)
let regionof0 t addr =
  if addr = 0 || addr land 3 <> 0 then 0
  else begin
    let pageno = addr lsr 12 in
    if pageno < Array.length t.page_map then t.page_map.(pageno) else 0
  end

let regionof t addr =
  Sim.Cost.instr (cost t) 3;
  regionof0 t addr

(* ------------------------------------------------------------------ *)
(* Reference counts *)

let rc_add t r delta =
  let v = Sim.Memory.load t.mem (r + off_rc) in
  Sim.Memory.store t.mem (r + off_rc) (v + delta)

let refcount t r = Sim.Memory.peek t.mem (r + off_rc)

(* ------------------------------------------------------------------ *)
(* Pages *)

(* The simulated OS never unmaps, so boundedness comes entirely from
   reuse: single pages cycle through [pool]; contiguous multi-page
   extents freed by large-object reclamation keep their length in
   [free_blocks] so later large allocations can claim them (best fit,
   remainder split off).  When the small pool runs dry we peel pages
   off a free block before asking the OS — a mix that shifts from
   large-heavy to small-heavy must not keep mapping fresh pages while
   old large extents sit idle. *)

let pool_push t p =
  t.pool <- p :: t.pool;
  t.pool_len <- t.pool_len + 1

let new_page t =
  match t.pool with
  | p :: rest ->
      Sim.Cost.instr (cost t) 4;
      t.pool <- rest;
      t.pool_len <- t.pool_len - 1;
      p
  | [] -> (
      match t.free_blocks with
      | (addr, pages) :: rest ->
          Sim.Cost.instr (cost t) 6;
          t.block_pages <- t.block_pages - pages;
          t.free_blocks <- rest;
          let rem = pages - 1 in
          if rem = 1 then pool_push t (addr + page_bytes)
          else if rem > 1 then begin
            t.free_blocks <- (addr + page_bytes, rem) :: t.free_blocks;
            t.block_pages <- t.block_pages + rem
          end;
          addr
      | [] ->
          Sim.Cost.instr (cost t) 20 (* OS call overhead *);
          let p = Sim.Memory.map_pages t.mem 1 in
          Alloc.Stats.on_map t.stats page_bytes;
          t.pages_mapped <- t.pages_mapped + 1;
          p)

let release_page t p =
  Sim.Cost.instr (cost t) 4;
  set_page_region t p 0;
  pool_push t p

let release_block t addr pages =
  Sim.Cost.instr (cost t) 4;
  for i = 0 to pages - 1 do
    set_page_region t (addr + (i * page_bytes)) 0
  done;
  if pages = 1 then pool_push t addr
  else begin
    t.free_blocks <- (addr, pages) :: t.free_blocks;
    t.block_pages <- t.block_pages + pages
  end

(* Smallest free block of at least [pages] pages. *)
let find_block t pages =
  List.fold_left
    (fun acc ((_, bp) as e) ->
      if bp < pages then acc
      else match acc with Some (_, ap) when ap <= bp -> acc | _ -> Some e)
    None t.free_blocks

let take_block t pages ((addr, bp) as e) =
  Sim.Cost.instr (cost t) 8;
  t.free_blocks <- List.filter (fun e' -> e' != e) t.free_blocks;
  t.block_pages <- t.block_pages - bp;
  let rem = bp - pages in
  if rem = 1 then pool_push t (addr + (pages * page_bytes))
  else if rem > 1 then begin
    t.free_blocks <- (addr + (pages * page_bytes), rem) :: t.free_blocks;
    t.block_pages <- t.block_pages + rem
  end;
  addr

(* ------------------------------------------------------------------ *)
(* Creation *)

let create ?(safe = true) ?(offset_regions = true) ?(eager_locals = false)
    cleanups mutator =
  let mem = Mutator.memory mutator in
  let t =
    {
      mem;
      mutator;
      cleanups;
      safe;
      offset_regions;
      eager_locals;
      stats = Alloc.Stats.create ();
      rstats = Rstats.create ();
      pool = [];
      pool_len = 0;
      free_blocks = [];
      block_pages = 0;
      pages_mapped = 0;
      page_map = Array.make 1024 0;
      hosts = Array.make 1024 None;
      regions_created = 0;
      bump = None;
      mutator_id = 0;
    }
  in
  t

(* ------------------------------------------------------------------ *)
(* Stack scan / unscan (sections 4.2.1 and 4.2.3) *)

let scan_frame t fr =
  Sim.Cost.instr (cost t) 6 (* locate the frame's liveness map *);
  Mutator.iter_live_ptrs fr (fun v ->
      Sim.Cost.instr (cost t) 2;
      if v <> 0 then begin
        let r = regionof0 t v in
        if r <> 0 then rc_add t r 1
      end)

let unscan_frame t fr =
  Sim.Cost.instr (cost t) 6 (* the patched-return-address trampoline *);
  Mutator.iter_live_ptrs fr (fun v ->
      Sim.Cost.instr (cost t) 2;
      if v <> 0 then begin
        let r = regionof0 t v in
        if r <> 0 then rc_add t r (-1)
      end)

let scan_stack t =
  Sim.Cost.with_context (cost t) Sim.Cost.Stack_scan (fun () ->
      let mut = t.mutator in
      for i = Mutator.hwm mut to Mutator.depth mut - 1 do
        scan_frame t (Mutator.frame mut i)
      done;
      Mutator.set_hwm mut (Mutator.depth mut))

let unscan_top t =
  Sim.Cost.with_context (cost t) Sim.Cost.Stack_scan (fun () ->
      let mut = t.mutator in
      let depth = Mutator.depth mut in
      if depth > 0 && Mutator.hwm mut = depth then begin
        unscan_frame t (Mutator.top_frame mut);
        Mutator.set_hwm mut (depth - 1)
      end)

let install_hooks t =
  if t.safe && not t.eager_locals then
    Mutator.set_unscan_hook t.mutator (fun fr ->
        Sim.Cost.with_context (cost t) Sim.Cost.Stack_scan (fun () ->
            unscan_frame t fr))
  else if t.safe && t.eager_locals then
    (* Eager ablation: destroying a frame releases the references its
       counted locals hold. *)
    Mutator.set_pop_hook t.mutator (fun fr ->
        Sim.Cost.with_context (cost t) Sim.Cost.Refcount (fun () ->
            (* Only slots: operand-stack temporaries are never counted
               under eager locals (they play the role of registers). *)
            for i = 0 to Mutator.nslots fr - 1 do
              if Mutator.is_ptr_slot fr i then begin
                Sim.Cost.instr (cost t) 2;
                let v = Mutator.get_local fr i in
                if v <> 0 then begin
                  let r = regionof0 t v in
                  if r <> 0 then rc_add t r (-1)
                end
              end
            done))

(* ------------------------------------------------------------------ *)
(* Multi-mutator bump fast path (SBCL gencgc alloc_region) *)

let fresh_ar () = { ar_region = 0; ar_page = 0; ar_free = 0 }

let enable_bump t =
  match t.bump with
  | Some _ -> ()
  | None ->
      t.bump <-
        Some
          {
            cur = t.mutator_id;
            ars = Array.init 4 (fun _ -> fresh_ar ());
            open_count = 0;
            hits = 0;
            opens = 0;
            closes = 0;
            refills = 0;
            contended_refills = 0;
          }

let bump_active t = t.bump <> None

(* Switching mutators is a thread-local-pointer swap on real hardware:
   host-side only, no simulated charge.  Each mutator's alloc region
   stays open across the switch — that is the point of the design. *)
let set_mutator t mid =
  if mid < 0 then invalid_arg "Region.set_mutator: negative mutator id";
  t.mutator_id <- mid;
  match t.bump with
  | None -> ()
  | Some b ->
      if mid >= Array.length b.ars then begin
        let bigger =
          Array.init
            (max (2 * Array.length b.ars) (mid + 1))
            (fun i ->
              if i < Array.length b.ars then b.ars.(i) else fresh_ar ())
        in
        b.ars <- bigger
      end;
      b.cur <- mid

let current_mutator t = t.mutator_id

let bump_stats t =
  match t.bump with
  | None ->
      {
        bs_hits = 0;
        bs_opens = 0;
        bs_closes = 0;
        bs_refills = 0;
        bs_contended_refills = 0;
      }
  | Some b ->
      {
        bs_hits = b.hits;
        bs_opens = b.opens;
        bs_closes = b.closes;
        bs_refills = b.refills;
        bs_contended_refills = b.contended_refills;
      }

(* Close: write the deferred state ([off_nfrom] and the end-of-objects
   marker) back to the region structure.  Must run before anything
   reads the structure for real — the region scan at deletion, or a
   handoff of the region to another mutator's alloc region. *)
let ar_close t b ar =
  if ar.ar_region <> 0 then begin
    Sim.Cost.instr (cost t) 2;
    Sim.Memory.store t.mem (ar.ar_region + off_nfrom) ar.ar_free;
    if ar.ar_free + 4 <= page_bytes then
      Sim.Memory.store t.mem (ar.ar_page + ar.ar_free) 0;
    ar.ar_region <- 0;
    b.closes <- b.closes + 1;
    b.open_count <- b.open_count - 1
  end

(* Open: load the region's normal-allocator head into the cache. *)
let ar_open t b ar r =
  Sim.Cost.instr (cost t) 2;
  ar.ar_region <- r;
  ar.ar_page <- Sim.Memory.load t.mem (r + off_npage);
  ar.ar_free <- Sim.Memory.load t.mem (r + off_nfrom);
  b.opens <- b.opens + 1;
  b.open_count <- b.open_count + 1

(* Refill: the genuine slow path.  Ask the shared page pool for a page
   (this may raise a fault — nothing is mutated before the request
   succeeds) and link it into the region's page chain, which stays
   accurate in simulated memory at all times. *)
let ar_refill t b ar r =
  let p = new_page t in
  b.refills <- b.refills + 1;
  if b.open_count > 1 then b.contended_refills <- b.contended_refills + 1;
  (* The outgoing page's end-of-objects marker was deferred on the
     fast path; it retires here, where the legacy path's final
     allocation on that page would have stored it. *)
  if ar.ar_free + 4 <= page_bytes then
    Sim.Memory.store t.mem (ar.ar_page + ar.ar_free) 0;
  Sim.Memory.store t.mem p ar.ar_page (* link to the previous page *);
  Sim.Memory.store t.mem (r + off_npage) p;
  set_page_region t p r;
  ar.ar_page <- p;
  ar.ar_free <- 4

(* Charged close of every alloc region open against [r]; called before
   region deletion reads or releases the structure.  Any mutator may
   have bumped into [r], so all of them are checked. *)
let close_ars_on t r =
  match t.bump with
  | None -> ()
  | Some b ->
      if b.open_count > 0 then
        Sim.Cost.with_context (cost t) Sim.Cost.Alloc (fun () ->
            Array.iter
              (fun ar -> if ar.ar_region = r then ar_close t b ar)
              b.ars)

let flush_alloc_regions t =
  match t.bump with
  | None -> ()
  | Some b ->
      if b.open_count > 0 then
        Sim.Cost.with_context (cost t) Sim.Cost.Alloc (fun () ->
            Array.iter (fun ar -> ar_close t b ar) b.ars)

(* Cost-free write-back for the introspection helpers: peeking code
   (invariant checks, object walks) must see a consistent structure
   without perturbing any simulated count.  The charged close later
   stores the same values, so contents never diverge. *)
let sync_ars_peek t =
  match t.bump with
  | None -> ()
  | Some b ->
      if b.open_count > 0 then
        Array.iter
          (fun ar ->
            if ar.ar_region <> 0 then begin
              Sim.Memory.poke t.mem (ar.ar_region + off_nfrom) ar.ar_free;
              if ar.ar_free + 4 <= page_bytes then
                Sim.Memory.poke t.mem (ar.ar_page + ar.ar_free) 0
            end)
          b.ars

(* ------------------------------------------------------------------ *)
(* Allocation *)

(* The per-operation entry points below run their bodies under
   [Sim.Cost.within] rather than [with_context]: no closure is built
   per allocation.  [within] passes two arguments, so a body that needs
   more takes the rest as one tuple. *)

let newregion_body t () =
  Sim.Cost.instr (cost t) 8;
  let p = new_page t in
  Sim.Memory.store t.mem p 0 (* no previous page *);
  let gap = if t.offset_regions then 64 * (t.regions_created mod 8) else 0 in
  t.regions_created <- t.regions_created + 1;
  let r = p + 4 + gap in
  let scan_off = r + struct_bytes - p in
  Sim.Memory.store t.mem (r + off_rc) 0;
  Sim.Memory.store t.mem (r + off_npage) p;
  Sim.Memory.store t.mem (r + off_nfrom) scan_off;
  Sim.Memory.store t.mem (r + off_spage) 0;
  Sim.Memory.store t.mem (r + off_sfrom) page_bytes;
  Sim.Memory.store t.mem (r + off_scan) scan_off;
  (* End-of-objects marker for the region scan. *)
  Sim.Memory.store t.mem (p + scan_off) 0;
  set_page_region t p r;
  t.hosts.(p lsr 12) <-
    Some { region = r; counts = Rstats.on_new t.rstats; large = [] };
  Obs.Tracer.region_create (Sim.Memory.tracer t.mem) r;
  r

let newregion t =
  install_hooks t;
  Sim.Cost.within (cost t) Sim.Cost.Alloc newregion_body t ()

let check_region t r =
  if r = 0 then invalid_arg "Region: null region";
  if regionof0 t r <> r then invalid_arg "Region: invalid or deleted region"

(* The host record of live region [r]. *)
let host t r =
  match t.hosts.(r lsr 12) with
  | Some h -> h
  | None -> invalid_arg "Region: invalid or deleted region"

let counts t r =
  if r <> 0 && regionof0 t r = r then Some (host t r).counts else None

let record_alloc t h size =
  Alloc.Stats.on_group_alloc t.stats size;
  Rstats.on_alloc t.rstats h.counts (round4 size)

(* Bump-allocate [total] bytes from the normal allocator of [r],
   starting a fresh page when the head page is full.  This is the
   legacy path: every allocation loads and stores the region structure
   and re-marks the end of the filled part. *)
let normal_alloc_slow t r total =
  let from = Sim.Memory.load t.mem (r + off_nfrom) in
  let page = Sim.Memory.load t.mem (r + off_npage) in
  let page, from =
    if from + total <= page_bytes then (page, from)
    else begin
      let p = new_page t in
      Sim.Memory.store t.mem p page (* link to the previous page *);
      Sim.Memory.store t.mem (r + off_npage) p;
      set_page_region t p r;
      (p, 4)
    end
  in
  let addr = page + from in
  let from' = from + total in
  Sim.Memory.store t.mem (r + off_nfrom) from';
  (* Mark the end of the filled part (pooled pages hold stale data). *)
  if from' + 4 <= page_bytes then Sim.Memory.store t.mem (page + from') 0;
  addr

(* With bump enabled, the current mutator's alloc region serves the
   allocation inline: a bounds check and a pointer bump (2 charged
   instructions — the free_pointer/end_addr compare-and-add of SBCL's
   inline path).  The addresses produced are identical to the legacy
   path's; only the deferred structure write-back and the skipped
   per-allocation end marker differ, and both are restored at close. *)
let normal_alloc t r total =
  match t.bump with
  | None -> normal_alloc_slow t r total
  | Some b ->
      let ar = Array.unsafe_get b.ars b.cur in
      if ar.ar_region = r && ar.ar_free + total <= page_bytes then begin
        b.hits <- b.hits + 1;
        Sim.Cost.instr (cost t) 2;
        let addr = ar.ar_page + ar.ar_free in
        ar.ar_free <- ar.ar_free + total;
        addr
      end
      else begin
        if ar.ar_region <> r then begin
          (* Region switch: hand the cache over.  If another mutator's
             alloc region is open on [r], its deferred state must land
             first, or this open would read a stale offset. *)
          ar_close t b ar;
          Array.iter (fun o -> if o.ar_region = r then ar_close t b o) b.ars;
          ar_open t b ar r
        end;
        if ar.ar_free + total > page_bytes then ar_refill t b ar r;
        Sim.Cost.instr (cost t) 2;
        let addr = ar.ar_page + ar.ar_free in
        ar.ar_free <- ar.ar_free + total;
        addr
      end

let max_normal_data = page_bytes - 4 (* link *) - 8 (* header + marker *)

let ralloc_body t (r, id, size) =
  Sim.Cost.instr (cost t) 6;
  let data = round4 size in
  if data > max_normal_data then
    invalid_arg "ralloc: objects must fit in one page";
  let addr = normal_alloc t r (4 + data) in
  Sim.Memory.store t.mem addr id;
  Sim.Memory.clear t.mem (addr + 4) data;
  record_alloc t (host t r) size;
  addr + 4

let ralloc_with_id t r id size =
  check_region t r;
  Sim.Cost.within (cost t) Sim.Cost.Alloc ralloc_body t (r, id, size)

let ralloc t r layout =
  ralloc_with_id t r
    (Cleanup.register_object t.cleanups layout)
    layout.Cleanup.size_bytes

let ralloc_custom t r id =
  match Cleanup.find t.cleanups id with
  | Cleanup.Custom { size_bytes; _ } -> ralloc_with_id t r id size_bytes
  | Cleanup.Object l -> ralloc_with_id t r id l.Cleanup.size_bytes
  | Cleanup.Array _ ->
      invalid_arg "ralloc_custom: array cleanups need rarrayalloc"

let rarrayalloc_body t (r, n, (layout : Cleanup.layout)) =
  Sim.Cost.instr (cost t) 8;
  let stride = Cleanup.stride layout in
  let data = n * stride in
  if data + 4 > max_normal_data then
    invalid_arg "rarrayalloc: arrays must fit in one page";
  let id = Cleanup.register_array t.cleanups layout in
  let addr = normal_alloc t r (8 + data) in
  Sim.Memory.store t.mem addr id;
  Sim.Memory.store t.mem (addr + 4) n;
  Sim.Memory.clear t.mem (addr + 8) data;
  record_alloc t (host t r) (n * layout.Cleanup.size_bytes);
  addr + 8

let rarrayalloc t r ~n (layout : Cleanup.layout) =
  check_region t r;
  if n <= 0 then invalid_arg "rarrayalloc: n must be positive";
  Sim.Cost.within (cost t) Sim.Cost.Alloc rarrayalloc_body t (r, n, layout)

let rstralloc_body t (r, size) =
  Sim.Cost.instr (cost t) 5;
  let data = round4 size in
  if data <= page_bytes - 4 then begin
    (* Small: bump from the string allocator (no header, not
       cleared, never scanned). *)
    let from = Sim.Memory.load t.mem (r + off_sfrom) in
    let page = Sim.Memory.load t.mem (r + off_spage) in
    let page, from =
      if page <> 0 && from + data <= page_bytes then (page, from)
      else begin
        let p = new_page t in
        Sim.Memory.store t.mem p page;
        Sim.Memory.store t.mem (r + off_spage) p;
        set_page_region t p r;
        (p, 4)
      end
    in
    let addr = page + from in
    Sim.Memory.store t.mem (r + off_sfrom) (from + data);
    record_alloc t (host t r) size;
    addr
  end
  else begin
    (* Large object: dedicated pages, reusing a freed extent when
       one is big enough, mapping fresh from the OS otherwise. *)
    let pages = (data + page_bytes - 1) / page_bytes in
    let addr =
      if pages = 1 then new_page t
      else
        match find_block t pages with
        | Some e -> take_block t pages e
        | None ->
            Sim.Cost.instr (cost t) 20;
            let a = Sim.Memory.map_pages t.mem pages in
            Alloc.Stats.on_map t.stats (pages * page_bytes);
            t.pages_mapped <- t.pages_mapped + pages;
            a
    in
    for i = 0 to pages - 1 do
      set_page_region t (addr + (i * page_bytes)) r
    done;
    let h = host t r in
    h.large <- (addr, pages) :: h.large;
    record_alloc t h size;
    addr
  end

let rstralloc t r size =
  check_region t r;
  if size <= 0 then invalid_arg "rstralloc: size must be positive";
  Sim.Cost.within (cost t) Sim.Cost.Alloc rstralloc_body t (r, size)

(* ------------------------------------------------------------------ *)
(* Write barriers (Figure 5); like the allocation entry points, the
   barrier runs under [Sim.Cost.within]. *)

let global_write_cost = 16
let region_write_cost = 23
let sameregion_hint_cost = 2

let barrier_body t (addr, value) =
  let c = cost t in
  let before = Sim.Cost.refcount_instrs c in
  let container = regionof0 t addr in
  let old = Sim.Memory.load t.mem addr in
  let r_old = regionof0 t old in
  let r_new = regionof0 t value in
  if r_old <> r_new then begin
    if r_old <> 0 && r_old <> container then rc_add t r_old (-1);
    if r_new <> 0 && r_new <> container then rc_add t r_new 1
  end;
  let target =
    if container = 0 then global_write_cost else region_write_cost
  in
  let used = Sim.Cost.refcount_instrs c - before in
  if used < target then Sim.Cost.instr c (target - used)

let write_ptr t ?(same_region_hint = false) ~addr value =
  if not t.safe then Sim.Memory.store t.mem addr value
  else begin
    let c = cost t in
    if same_region_hint then
      (* The compile-time sameregion optimisation of section 5.6: no
         lookups, no count updates. *)
      Sim.Cost.within c Sim.Cost.Refcount Sim.Cost.instr c
        sameregion_hint_cost
    else Sim.Cost.within c Sim.Cost.Refcount barrier_body t (addr, value);
    Obs.Tracer.barrier (Sim.Memory.tracer t.mem) ~addr
      ~hinted:same_region_hint;
    Sim.Memory.store t.mem addr value
  end

let set_local_ptr t fr i v =
  if t.safe && t.eager_locals then begin
    let c = cost t in
    Sim.Cost.with_context c Sim.Cost.Refcount (fun () ->
        let before = Sim.Cost.refcount_instrs c in
        let old = Mutator.get_local fr i in
        let r_old = regionof0 t old in
        let r_new = regionof0 t v in
        if r_old <> r_new then begin
          if r_old <> 0 then rc_add t r_old (-1);
          if r_new <> 0 then rc_add t r_new 1
        end;
        let used = Sim.Cost.refcount_instrs c - before in
        if used < global_write_cost then
          Sim.Cost.instr c (global_write_cost - used))
  end;
  Mutator.set_local t.mutator fr i v

(* ------------------------------------------------------------------ *)
(* Region scan (Figure 7) and deletion *)

let destroy t ~deleting v =
  Sim.Cost.instr (cost t) 3;
  if v <> 0 then begin
    let r = regionof0 t v in
    if r <> 0 && r <> deleting then rc_add t r (-1)
  end

(* [destroy] every pointer field of the object at [obj]: a plain loop
   over the offsets, so the scan builds no closure per object. *)
let rec destroy_fields t ~deleting obj = function
  | [] -> ()
  | off :: rest ->
      destroy t ~deleting (Sim.Memory.load t.mem (obj + off));
      destroy_fields t ~deleting obj rest

let run_cleanup t ~deleting pos id =
  match Cleanup.find t.cleanups id with
  | Cleanup.Object l ->
      destroy_fields t ~deleting pos l.Cleanup.ptr_offsets;
      pos + Cleanup.stride l
  | Cleanup.Array l ->
      let n = Sim.Memory.load t.mem pos in
      let stride = Cleanup.stride l in
      let data = pos + 4 in
      for i = 0 to n - 1 do
        destroy_fields t ~deleting (data + (i * stride)) l.Cleanup.ptr_offsets
      done;
      data + (n * stride)
  | Cleanup.Custom { size_bytes; run } ->
      Sim.Cost.instr (cost t) 5;
      run t.mem pos;
      pos + round4 size_bytes

(* Collect the page list of an allocator, newest first. *)
let collect_pages t head =
  let rec go p acc = if p = 0 then acc else go (Sim.Memory.load t.mem p) (p :: acc) in
  List.rev (go head [])

let region_scan t r =
  Sim.Cost.with_context (cost t) Sim.Cost.Cleanup (fun () ->
      let pages = collect_pages t (Sim.Memory.load t.mem (r + off_npage)) in
      let scan_off = Sim.Memory.load t.mem (r + off_scan) in
      List.iter
        (fun p ->
          let link = Sim.Memory.load t.mem p in
          (* The region's own first page is the oldest (link = 0);
             objects there start after the region structure. *)
          let pos = if link = 0 then p + scan_off else p + 4 in
          let rec walk pos =
            if pos + 4 <= p + page_bytes then begin
              let id = Sim.Memory.load t.mem pos in
              if id <> 0 then walk (run_cleanup t ~deleting:r (pos + 4) id)
            end
          in
          walk pos)
        pages)

let release_region t r =
  Sim.Cost.with_context (cost t) Sim.Cost.Alloc (fun () ->
      let npages = collect_pages t (Sim.Memory.load t.mem (r + off_npage)) in
      let spages = collect_pages t (Sim.Memory.load t.mem (r + off_spage)) in
      List.iter (release_page t) spages;
      List.iter (release_page t) npages;
      let h = host t r in
      List.iter (fun (addr, pages) -> release_block t addr pages) h.large;
      Alloc.Stats.on_group_free t.stats ~count:h.counts.allocs
        ~bytes:h.counts.bytes;
      Rstats.on_delete t.rstats;
      t.hosts.(r lsr 12) <- None)

let read_rptr t = function
  | In_frame (fr, i) -> Mutator.get_local fr i
  | In_memory addr -> Sim.Memory.load t.mem addr

let clear_rptr t = function
  | In_frame (fr, i) -> Mutator.set_local_raw t.mutator fr i 0
  | In_memory addr -> Sim.Memory.store t.mem addr 0

let deleteregion t ptr =
  let r = read_rptr t ptr in
  check_region t r;
  (* Any alloc region open against [r] must write its deferred state
     back before the region scan walks the pages (it needs the end
     marker and the final offset) or the pages return to the pool. *)
  close_ars_on t r;
  if not t.safe then begin
    (* Unsafe regions: all reference-count support disabled; deletion
       always succeeds and runs no cleanups. *)
    release_region t r;
    clear_rptr t ptr;
    Obs.Tracer.region_delete (Sim.Memory.tracer t.mem) ~deleted:true r;
    true
  end
  else begin
    if not t.eager_locals then scan_stack t;
    Sim.Cost.instr (cost t) 2;
    let rc = Sim.Memory.load t.mem (r + off_rc) in
    (* The handle at [ptr] is itself a counted reference into [r]
       (C@'s Region is a region pointer to the region structure); it
       is exempt, so deletion requires exactly one reference. *)
    let deletable = rc = 1 in
    if deletable then begin
      region_scan t r;
      release_region t r;
      clear_rptr t ptr
    end;
    if not t.eager_locals then unscan_top t;
    Obs.Tracer.region_delete (Sim.Memory.tracer t.mem) ~deleted:deletable r;
    deletable
  end

(* ------------------------------------------------------------------ *)
(* Test helpers *)

(* Ascending, so that what callers derive from it (the reference
   listings of [Debug], the order of invariant failures) is fixed: a
   region's address rises with the page its host record sits at. *)
let live_regions t =
  Array.fold_right
    (fun h acc -> match h with Some h -> h.region :: acc | None -> acc)
    t.hosts []

let regionof_peek = regionof0

let collect_pages_peek t head =
  let rec go p acc =
    if p = 0 then acc else go (Sim.Memory.peek t.mem p) (p :: acc)
  in
  go head []

(* Size in bytes of the object whose cleanup word is [id] and whose
   data starts at [pos], reading cost-free; returns (data address,
   bytes after the cleanup word). *)
let object_extent_peek t id pos =
  match Cleanup.find t.cleanups id with
  | Cleanup.Object l -> (pos, Cleanup.stride l)
  | Cleanup.Array l ->
      let n = Sim.Memory.peek t.mem pos in
      (pos + 4, 4 + (n * Cleanup.stride l))
  | Cleanup.Custom { size_bytes; _ } -> (pos, round4 size_bytes)

let iter_objects_peek t r f =
  sync_ars_peek t;
  let pages = collect_pages_peek t (Sim.Memory.peek t.mem (r + off_npage)) in
  let scan_off = Sim.Memory.peek t.mem (r + off_scan) in
  List.iter
    (fun p ->
      let link = Sim.Memory.peek t.mem p in
      let pos = if link = 0 then p + scan_off else p + 4 in
      let rec walk pos =
        if pos + 4 <= p + page_bytes then begin
          let id = Sim.Memory.peek t.mem pos in
          if id <> 0 then begin
            let obj, bytes = object_extent_peek t id (pos + 4) in
            f ~obj ~cleanup:(Cleanup.find t.cleanups id);
            walk (pos + 4 + bytes)
          end
        end
      in
      walk pos)
    pages

let check_invariants t =
  sync_ars_peek t;
  let fail fmt = Fmt.kstr failwith fmt in
  let check_page_mapped r p what =
    if regionof0 t p <> r then
      fail "%s page %#x of region %#x not mapped to it" what p r
  in
  List.iter
    (fun r ->
      if regionof0 t r <> r then fail "region %#x not mapped to itself" r;
      if t.safe && Sim.Memory.peek t.mem (r + off_rc) < 0 then
        fail "region %#x has a negative reference count" r;
      let nfrom = Sim.Memory.peek t.mem (r + off_nfrom) in
      let sfrom = Sim.Memory.peek t.mem (r + off_sfrom) in
      if nfrom < 4 || nfrom > page_bytes then
        fail "region %#x: normal allocation offset %d out of range" r nfrom;
      if sfrom < 4 || sfrom > page_bytes then
        fail "region %#x: string allocation offset %d out of range" r sfrom;
      let npages = collect_pages_peek t (Sim.Memory.peek t.mem (r + off_npage)) in
      let spages = collect_pages_peek t (Sim.Memory.peek t.mem (r + off_spage)) in
      List.iter (fun p -> check_page_mapped r p "normal") npages;
      List.iter (fun p -> check_page_mapped r p "string") spages;
      List.iter
        (fun (addr, pages) ->
          for i = 0 to pages - 1 do
            check_page_mapped r (addr + (i * page_bytes)) "large"
          done)
        (host t r).large;
      (* Object headers must parse and stay within their page. *)
      List.iter
        (fun p ->
          let link = Sim.Memory.peek t.mem p in
          let scan_off = Sim.Memory.peek t.mem (r + off_scan) in
          let pos = if link = 0 then p + scan_off else p + 4 in
          let rec walk pos =
            if pos + 4 <= p + page_bytes then begin
              let id = Sim.Memory.peek t.mem pos in
              if id <> 0 then begin
                (match Cleanup.find t.cleanups id with
                | exception Invalid_argument _ ->
                    fail "region %#x: bad cleanup id %d at %#x" r id pos
                | _ -> ());
                let _, bytes = object_extent_peek t id (pos + 4) in
                if pos + 4 + bytes > p + page_bytes then
                  fail "region %#x: object at %#x overruns its page" r pos;
                walk (pos + 4 + bytes)
              end
            end
          in
          walk pos)
        npages;
      (* Pool pages must not be attributed to anyone. *)
      ())
    (live_regions t);
  List.iter
    (fun p ->
      if regionof0 t p <> 0 then
        fail "pooled page %#x still mapped to region %#x" p (regionof0 t p))
    t.pool

(* Malloc-shaped view of one region, for the cross-allocator
   differential fuzzer in [Check].  Regions have no per-object free
   (section 2 of the paper), so [free] releases nothing: storage is
   reclaimed wholesale by [deleteregion], which also records the frees
   in [stats].  [usable_size] comes from an OCaml-side table because a
   region object carries no size header to read back. *)
let region_allocator t r =
  check_region t r;
  let sizes = Hashtbl.create 64 in
  {
    Alloc.Allocator.name = "region";
    memory = t.mem;
    malloc =
      (fun size ->
        let p = rstralloc t r size in
        Hashtbl.replace sizes p (round4 size);
        p);
    free = (fun _ -> ());
    usable_size =
      (fun p -> match Hashtbl.find_opt sizes p with Some s -> s | None -> 0);
    check_heap = (fun () -> check_invariants t);
    stats = t.stats;
  }

let exact_refcount t r =
  let base = refcount t r in
  if t.eager_locals then base
  else begin
    let mut = t.mutator in
    let extra = ref 0 in
    for i = Mutator.hwm mut to Mutator.depth mut - 1 do
      let fr = Mutator.frame mut i in
      Mutator.iter_live_ptrs fr (fun v ->
          if v <> 0 && regionof0 t v = r then incr extra)
    done;
    base + !extra
  end
