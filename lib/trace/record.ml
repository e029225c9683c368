module Api = Workloads.Api

let variant_of_mode = function
  | Api.Direct _ -> "malloc"
  | Api.Emulated _ -> "emu"
  | Api.Region _ -> "region"

let variants_for (spec : Workloads.Workload.spec) =
  if spec.region_only then [ "emu"; "region" ] else [ "malloc"; "region" ]

let recording_mode = function
  | "malloc" -> Api.Direct Api.Gc
  | "emu" -> Api.Emulated Api.Gc
  | "region" -> Api.Region { safe = true }
  | v -> invalid_arg ("Trace.Record: unknown trace variant " ^ v)

(* Pointer classification.  The recorder shadows the set of live
   allocations and region handles (handle -> rid) so that any value
   stored through a pointer-aware operation can be rewritten as
   [Obj]/[Reg] relative to the trace's own id space.  Only
   [store_ptr]/[set_local]* values are classified — plain data stores
   stay raw.

   Live objects are tracked in a flat word-indexed owner array (every
   allocation is word-aligned — the simulator's allocators and the
   region allocator all round to words), making [classify] O(1): the
   recorder sits inside the workload's store hot path, where the
   ordered-map alternative (O(log n) with a closure per probe) was the
   dominant recording overhead. *)

type state = {
  w : Format.writer;
  mutable owner : int array;  (* word index -> object id + 1; 0 = none *)
  mutable obj_base : int array;  (* id -> base byte address *)
  mutable obj_bytes : int array;  (* id -> byte span *)
  mutable reg_rid : int array;  (* word index -> rid + 1; 0 = none *)
  mutable reg_handle : int array;  (* word index -> exact handle *)
  region_objs : (int, int list ref) Hashtbl.t;  (* rid -> bases *)
  mutable next_obj : int;
  mutable next_reg : int;
}

let classify st v =
  let w = v lsr 2 in
  if
    v > 0
    && w < Array.length st.reg_rid
    && st.reg_rid.(w) <> 0
    && st.reg_handle.(w) = v
  then Format.Reg (st.reg_rid.(w) - 1)
  else if v > 0 && w < Array.length st.owner && st.owner.(w) <> 0 then begin
    let id = st.owner.(w) - 1 in
    let base = st.obj_base.(id) in
    (* The owner map is word-granular; the span check is per byte. *)
    if v >= base && v < base + st.obj_bytes.(id) then Format.Obj (id, v - base)
    else Format.Raw v
  end
  else Format.Raw v

let ensure_owner st wmax =
  let n = Array.length st.owner in
  if wmax >= n then begin
    let bigger = Array.make (max (2 * n) (wmax + 1)) 0 in
    Array.blit st.owner 0 bigger 0 n;
    st.owner <- bigger
  end

(* Region handles live in the same flat word-indexed scheme as object
   owners, with the exact handle kept alongside so an interior address
   sharing the handle's word never aliases it.  [rid_of] mirrors the
   ordered-map [find] it replaced: @raise Not_found on a dead or
   unknown handle. *)

let ensure_reg st wmax =
  let n = Array.length st.reg_rid in
  if wmax >= n then begin
    let cap = max (2 * n) (wmax + 1) in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 n;
      b
    in
    st.reg_rid <- grow st.reg_rid;
    st.reg_handle <- grow st.reg_handle
  end

let rid_of st r =
  let w = r lsr 2 in
  if
    r > 0
    && w < Array.length st.reg_rid
    && st.reg_rid.(w) <> 0
    && st.reg_handle.(w) = r
  then st.reg_rid.(w) - 1
  else raise Not_found

let add_obj st ~addr ~bytes rid =
  let id = st.next_obj in
  st.next_obj <- id + 1;
  if id >= Array.length st.obj_base then begin
    let n = Array.length st.obj_base in
    let grow a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    st.obj_base <- grow st.obj_base;
    st.obj_bytes <- grow st.obj_bytes
  end;
  st.obj_base.(id) <- addr;
  st.obj_bytes.(id) <- bytes;
  let w1 = (addr + bytes - 1) lsr 2 in
  ensure_owner st w1;
  for w = addr lsr 2 to w1 do
    st.owner.(w) <- id + 1
  done;
  (match rid with
  | None -> ()
  | Some rid -> (
      match Hashtbl.find_opt st.region_objs rid with
      | Some l -> l := addr :: !l
      | None -> Hashtbl.add st.region_objs rid (ref [ addr ])))

(* Unregister the object whose base is [base]; [None] when no live
   object starts exactly there. *)
let remove_obj st ~base =
  let w0 = base lsr 2 in
  if w0 >= Array.length st.owner || st.owner.(w0) = 0 then None
  else
    let id = st.owner.(w0) - 1 in
    if st.obj_base.(id) <> base then None
    else begin
      let idp = id + 1 in
      for w = w0 to (base + st.obj_bytes.(id) - 1) lsr 2 do
        if st.owner.(w) = idp then st.owner.(w) <- 0
      done;
      Some id
    end

let recorder_of st =
  let emit r = Format.emit st.w r in
  let marked b e name f =
    emit (Mark { name; kind = b });
    let v = f () in
    emit (Mark { name; kind = e });
    v
  in
  {
    Api.on_malloc =
      (fun ~size ~addr ->
        Format.emit_malloc st.w ~size;
        add_obj st ~addr ~bytes:size None);
    on_free =
      (fun ~addr ->
        match remove_obj st ~base:addr with
        | Some id -> Format.emit_free st.w ~id
        | None -> invalid_arg "Trace.Record: free of an unrecorded block");
    on_newregion =
      (fun ~r ->
        Format.emit_newregion st.w;
        let rid = st.next_reg in
        st.next_reg <- rid + 1;
        let w = r lsr 2 in
        ensure_reg st w;
        st.reg_rid.(w) <- rid + 1;
        st.reg_handle.(w) <- r);
    on_ralloc =
      (fun ~r ~layout ~addr ->
        let rid = rid_of st r in
        Format.emit_ralloc st.w ~rid layout;
        add_obj st ~addr ~bytes:layout.Regions.Cleanup.size_bytes (Some rid));
    on_rstralloc =
      (fun ~r ~size ~addr ->
        let rid = rid_of st r in
        Format.emit_rstralloc st.w ~rid ~size;
        add_obj st ~addr ~bytes:size (Some rid));
    on_rarrayalloc =
      (fun ~r ~n ~layout ~addr ->
        let rid = rid_of st r in
        Format.emit_rarrayalloc st.w ~rid ~n layout;
        add_obj st ~addr ~bytes:(n * Regions.Cleanup.stride layout) (Some rid));
    on_deleteregion =
      (fun ~frame ~slot ~r ~ok ->
        (* The rid travels in the record (inert for sequential-id
           recorded traces, load-bearing for recycled generated ones). *)
        match rid_of st r with
        | exception Not_found ->
            Format.emit_deleteregion st.w ~rid:0 ~frame ~slot ~ok
        | rid ->
            Format.emit_deleteregion st.w ~rid ~frame ~slot ~ok;
            if ok then begin
              st.reg_rid.(r lsr 2) <- 0;
              match Hashtbl.find_opt st.region_objs rid with
              | None -> ()
              | Some bases ->
                  List.iter
                    (fun b -> ignore (remove_obj st ~base:b))
                    !bases;
                  Hashtbl.remove st.region_objs rid
            end);
    on_frame_push =
      (fun ~nslots ~ptr_slots -> emit (Frame_push { nslots; ptr_slots }));
    on_frame_pop = (fun () -> emit Frame_pop);
    on_store = (fun ~addr v -> Format.emit_poke st.w ~addr ~v);
    on_store_block = (fun ~addr words -> Format.emit_poke_block st.w ~addr words);
    on_store_bytes = (fun ~addr s -> Format.emit_poke_bytes st.w ~addr s);
    on_clear = (fun ~addr ~bytes -> Format.emit_clear st.w ~addr ~bytes);
    on_store_ptr =
      (fun ~addr v ->
        Format.emit_store_ptr st.w ~addr:(classify st addr) ~v:(classify st v));
    on_set_local =
      (fun ~frame ~slot v ->
        Format.emit_set_local st.w ~frame ~slot ~v:(classify st v));
    on_set_local_ptr =
      (fun ~frame ~slot v ->
        Format.emit_set_local_ptr st.w ~frame ~slot ~v:(classify st v));
    on_gc_roots = (fun roots -> Format.emit_gc_roots st.w roots);
    on_work = ignore;
    phase = (fun name f -> marked Phase_begin Phase_end name f);
    site = (fun name f -> marked Site_begin Site_end name f);
    on_set_mutator = (fun ~mid ~bump -> emit (Set_mutator { mid; bump }));
  }

let record ~out ?(seed = 0) ~variant (spec : Workloads.Workload.spec) size =
  if not (List.mem variant (variants_for spec)) then
    invalid_arg
      (Printf.sprintf "Trace.Record: workload %s has no %s variant" spec.name
         variant);
  let mode = recording_mode variant in
  let hdr =
    {
      Format.workload = spec.name;
      variant;
      mode = Api.mode_name mode;
      size =
        (match size with Workloads.Workload.Quick -> "quick" | Full -> "full");
      seed;
      build_id = Results.Cache.current_build_id ();
    }
  in
  let w = Format.create_writer ~path:out hdr in
  let st =
    {
      w;
      owner = Array.make 4096 0;
      obj_base = Array.make 1024 0;
      obj_bytes = Array.make 1024 0;
      reg_rid = Array.make 4096 0;
      reg_handle = Array.make 4096 0;
      region_objs = Hashtbl.create 64;
      next_obj = 0;
      next_reg = 0;
    }
  in
  match
    Workloads.Workload.(
      collect (run ~observer:(Api.Sink (recorder_of st)) spec mode size))
  with
  | res ->
      Format.commit w ~summary:res.Workloads.Results.summary;
      res
  | exception e ->
      Format.abort w;
      raise e
