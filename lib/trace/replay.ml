module Api = Workloads.Api

(* Every check raises [Divergence] at its own site, with the message
   built in the raise: the per-record handlers make no call on their
   success path (DESIGN §5h). *)
exception Divergence of string

(* The cache simulator only turns accesses into cycle/stall costs —
   mutator-side numbers replay does not reproduce — and every
   allocator-side count is identical without it, so replays run with
   it off. *)
let run ?timeline reader mode =
  let hdr = Format.header reader in
  if Record.variant_of_mode mode <> hdr.variant then
    invalid_arg
      (Printf.sprintf "Trace.Replay.run: %s trace cannot serve mode %s"
         hdr.variant (Api.mode_name mode));
  Format.reset reader;
  (* Pokes (heap contents, raw root snapshots) are only meaningful when
     the replay allocates at the recorded addresses: replaying the
     recording mode itself, or the safe/unsafe region pair, whose
     allocation paths are address-identical.  Elsewhere contents are
     never read back (no collector, no cleanup walk of data), so pokes
     are skipped and only classified values are translated. *)
  let apply_pokes =
    Api.mode_name mode = hdr.mode
    || match mode with Api.Region _ -> true | _ -> false
  in
  (* Recycled (generated) traces reuse freed ids, newest first, and
     size the id tables by their live high-water marks; recorded
     traces keep the sequential discipline.  The trailer flag decides,
     so replay memory for synthetic columns is O(max live), not
     O(total allocations). *)
  let recycled = Format.recycled reader in
  let oslots = max (Format.obj_slots reader) 1 in
  let rslots = max (Format.reg_slots reader) 1 in
  let obj_addr = Array.make oslots 0 in
  let reg_handle = Array.make rslots 0 in
  let next_obj = ref 0 and next_reg = ref 0 in
  (* Recycling state: LIFO free stacks, per-region id lists (newest
     first, threaded through [region_next] from [region_head], -1
     ending a list, so recording a region object allocates nothing) and
     a live map feeding the collector's root fallback. *)
  let free_ids = if recycled then Array.make oslots 0 else [||] in
  let free_top = ref 0 in
  let free_rids = if recycled then Array.make rslots 0 else [||] in
  let free_rtop = ref 0 in
  let live = if recycled then Bytes.make oslots '\000' else Bytes.empty in
  let region_head = if recycled then Array.make rslots (-1) else [||] in
  let region_next = if recycled then Array.make oslots (-1) else [||] in
  let rootq = Queue.create () in
  let gc_roots () =
    match Queue.take_opt rootq with
    | Some roots -> roots
    | None ->
        if not recycled then
          raise
            (Divergence "collection with no recorded root snapshot left")
        else begin
          (* Generated traces carry no snapshots (collection points
             are not knowable at generation time): every live object
             is a root, so exactly the freed ones get reclaimed. *)
          let n = ref 0 in
          for i = 0 to oslots - 1 do
            if Bytes.unsafe_get live i <> '\000' then incr n
          done;
          let out = Array.make !n 0 in
          let k = ref 0 in
          for i = 0 to oslots - 1 do
            if Bytes.unsafe_get live i <> '\000' then begin
              out.(!k) <- obj_addr.(i);
              incr k
            end
          done;
          out
        end
  in
  let api = Api.create ~with_cache:false ~gc_roots mode in
  let mem = Api.memory api in
  let mut = Api.mutator api in
  (* Heap-timeline plumbing.  Held-byte accounting is incremental —
     O(1) per allocation event, two int arrays bounded by the id
     tables — and built exclusively from cost-free introspection
     ([usable_size] peeks, OCaml-side stats), so an attached timeline
     changes no simulated count.  [tl_on] guards every touch: with no
     timeline the replay allocates none of this state. *)
  let tl_on = timeline <> None in
  let held_now = ref 0 in
  let held_sz = if tl_on then Array.make oslots 0 else [||] in
  let region_held = if tl_on then Array.make rslots 0 else [||] in
  let round4 n = (n + 3) land lnot 3 in
  (* Bytes the manager holds for one object: the usable size plus the
     header word under the malloc columns (size-class and chunk
     rounding — internal fragmentation), the word-rounded request
     under region and emulated columns (their waste is page-level,
     i.e. external).  The collector's holdings are read from its
     allocator-side stats instead (frees land at collections), so its
     per-object entry here is never consulted. *)
  let usable =
    match (mode, Api.allocator api) with
    | Api.Direct b, Some a when b <> Api.Gc ->
        fun addr _size -> a.Alloc.Allocator.usable_size addr + 4
    | _ -> fun _addr size -> round4 size
  in
  let tl_note =
    match timeline with
    | Some tl ->
        let req = Api.requested_stats api in
        let held =
          match (mode, Api.allocator api) with
          | Api.Direct Api.Gc, Some a ->
              fun () -> Alloc.Stats.live_bytes a.Alloc.Allocator.stats
          | _ -> fun () -> !held_now
        in
        Obs.Timeline.set_probe tl (fun () ->
            ( Alloc.Stats.allocs req - Alloc.Stats.frees req,
              Alloc.Stats.live_bytes req,
              held (),
              Api.os_bytes api ));
        fun () -> Obs.Timeline.note tl
    | None -> Fun.id
  in
  let alloc_id () =
    if recycled && !free_top > 0 then begin
      decr free_top;
      free_ids.(!free_top)
    end
    else begin
      let id = !next_obj in
      if id >= oslots then
        raise
          (Divergence (Printf.sprintf "object id overflow (%d slots)" oslots));
      incr next_obj;
      id
    end
  in
  let push_obj addr size =
    let id = alloc_id () in
    obj_addr.(id) <- addr;
    if recycled then Bytes.set live id '\001';
    if tl_on then begin
      let h = usable addr size in
      held_sz.(id) <- h;
      held_now := !held_now + h;
      tl_note ()
    end
  in
  let push_region_obj rid addr size =
    let id = alloc_id () in
    obj_addr.(id) <- addr;
    if recycled then begin
      Bytes.set live id '\001';
      region_next.(id) <- region_head.(rid);
      region_head.(rid) <- id
    end;
    if tl_on then begin
      let h = usable addr size in
      region_held.(rid) <- region_held.(rid) + h;
      held_now := !held_now + h;
      tl_note ()
    end
  in
  let release_id id =
    Bytes.set live id '\000';
    free_ids.(!free_top) <- id;
    incr free_top
  in
  (* Release a region's ids, newest first, from the head of its list. *)
  let rec release_ids id =
    if id >= 0 then begin
      let next = region_next.(id) in
      release_id id;
      release_ids next
    end
  in
  let newregion () =
    let rid =
      if recycled && !free_rtop > 0 then begin
        decr free_rtop;
        free_rids.(!free_rtop)
      end
      else begin
        let rid = !next_reg in
        if rid >= rslots then
          raise
            (Divergence
               (Printf.sprintf "region id overflow (%d slots)" rslots));
        incr next_reg;
        rid
      end
    in
    reg_handle.(rid) <- Api.newregion api
  in
  let deleteregion ~rid ~frame ~slot ~ok =
    let got = Api.deleteregion api (Regions.Mutator.frame mut frame) slot in
    if got <> ok then
      raise
        (Divergence
           (Printf.sprintf
              "deleteregion returned %b where the trace recorded %b" got ok));
    if tl_on && got then begin
      held_now := !held_now - region_held.(rid);
      region_held.(rid) <- 0
    end;
    if recycled && got then begin
      release_ids region_head.(rid);
      region_head.(rid) <- -1;
      free_rids.(!free_rtop) <- rid;
      incr free_rtop
    end
  in
  (* Pokes and pointer stores dominate every trace; where their
     contents are never read back they decode into a no-op. *)
  let poke =
    if apply_pokes then fun ~addr ~v -> Sim.Memory.poke mem addr v
    else fun ~addr:_ ~v:_ -> ()
  in
  let handlers =
    {
      Format.malloc = (fun ~size -> push_obj (Api.malloc api size) size);
      free =
        (fun ~id ->
          Api.free api obj_addr.(id);
          if tl_on then held_now := !held_now - held_sz.(id);
          if recycled then release_id id);
      newregion;
      ralloc =
        (fun ~rid layout ->
          push_region_obj rid
            (Api.ralloc api reg_handle.(rid) layout)
            layout.Regions.Cleanup.size_bytes);
      rstralloc =
        (fun ~rid ~size ->
          push_region_obj rid (Api.rstralloc api reg_handle.(rid) size) size);
      rarrayalloc =
        (fun ~rid ~n layout ->
          push_region_obj rid
            (Api.rarrayalloc api reg_handle.(rid) ~n layout)
            (n * layout.Regions.Cleanup.size_bytes));
      deleteregion;
      poke;
      clear =
        (fun ~addr ~bytes ->
          if apply_pokes then Sim.Memory.poke_fill mem addr bytes);
      resolve =
        (fun kind a b ->
          if kind = 0 then a
          else if kind = 1 then obj_addr.(a) + b
          else reg_handle.(a));
      store_ptr =
        (* Under regions the barrier is allocator-side work (refcount
           maintenance that [deleteregion] outcomes depend on), so it
           must really execute; elsewhere a pointer store is plain
           mutator traffic and only the heap contents matter. *)
        (match mode with
        | Api.Region _ -> fun ~addr ~v -> Api.store_ptr api ~addr v
        | _ -> poke);
      set_local =
        (fun ~frame ~slot ~v ->
          Api.set_local api (Regions.Mutator.frame mut frame) slot v);
      set_local_ptr =
        (fun ~frame ~slot ~v ->
          Api.set_local_ptr api (Regions.Mutator.frame mut frame) slot v);
      set_mutator =
        (fun ~mid ~bump ->
          (* Reproduce the recorded scheduling state exactly: same
             mutator identity, same allocation path (bump vs
             legacy). *)
          if bump then Api.enable_bump api;
          Api.set_mutator api mid);
    }
  in
  (* [Format.dispatch] hands every common record to [handlers]; frames
     and the rare records come back here. *)
  let rec run_level depth =
    match Format.dispatch reader handlers with
    | Format.End ->
        if depth <> 0 then
          raise
            (Divergence
               (Printf.sprintf "trace ended inside %d open frame(s)" depth))
    | Format.Frame_pop ->
        if depth = 0 then raise (Divergence "unmatched frame pop")
    | Format.Frame_push { nslots; ptr_slots } ->
        Api.with_frame api ~nslots ~ptr_slots (fun _ ->
            run_level (depth + 1));
        run_level depth
    | Format.Poke_bytes { addr; s } ->
        if apply_pokes then Sim.Memory.poke_bytes mem addr s;
        run_level depth
    | Format.Poke_block { addr; words } ->
        if apply_pokes then
          Array.iteri (fun i v -> Sim.Memory.poke mem (addr + (4 * i)) v) words;
        run_level depth
    | Format.Gc_roots roots ->
        Queue.add roots rootq;
        run_level depth
    | Format.Mark _ -> run_level depth
    | Format.Malloc _ | Format.Free _ | Format.Newregion | Format.Ralloc _
    | Format.Rstralloc _ | Format.Rarrayalloc _ | Format.Deleteregion _
    | Format.Poke _ | Format.Clear _ | Format.Store_ptr _
    | Format.Set_local _ | Format.Set_local_ptr _ | Format.Set_mutator _ ->
        assert false (* taken by [handlers] *)
  in
  run_level 0;
  (match timeline with Some tl -> Obs.Timeline.finish tl | None -> ());
  Workloads.Results.collect api ~workload:hdr.workload
    ~summary:(Format.summary reader)
