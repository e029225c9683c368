type reference =
  | In_frame_slot of { frame_index : int; slot : int; value : int }
  | In_operand of { frame_index : int; value : int }
  | In_global of { addr : int; value : int }
  | In_region_object of {
      holder : Region.region;
      obj : int;
      offset : int;
      value : int;
    }

let pp_reference ppf = function
  | In_frame_slot { frame_index; slot; value } ->
      Fmt.pf ppf "frame %d, local slot %d holds %#x" frame_index slot value
  | In_operand { frame_index; value } ->
      Fmt.pf ppf "frame %d, expression temporary holds %#x" frame_index value
  | In_global { addr; value } -> Fmt.pf ppf "global word %#x holds %#x" addr value
  | In_region_object { holder; obj; offset; value } ->
      Fmt.pf ppf "object %#x (+%d) of region %#x holds %#x" obj offset holder
        value

let references_into lib r =
  let mut = Region.mutator lib in
  let mem = Region.memory lib in
  let refs = ref [] in
  let add x = refs := x :: !refs in
  let into v = v <> 0 && Region.regionof_peek lib v = r in
  (* Stack: every frame, slots and operands. *)
  for i = 0 to Mutator.depth mut - 1 do
    let fr = Mutator.frame mut i in
    for s = 0 to Mutator.nslots fr - 1 do
      if Mutator.is_ptr_slot fr s then begin
        let v = Mutator.get_local fr s in
        if into v then add (In_frame_slot { frame_index = i; slot = s; value = v })
      end
    done;
    List.iter
      (fun (v, is_ptr) ->
        if is_ptr && into v then add (In_operand { frame_index = i; value = v }))
      (Mutator.operands fr)
  done;
  (* Globals. *)
  for g = 0 to Mutator.globals_words mut - 1 do
    let addr = Mutator.global_addr mut g in
    let v = Sim.Memory.peek mem addr in
    if into v then add (In_global { addr; value = v })
  done;
  (* Other regions' objects, via their cleanup layouts. *)
  List.iter
    (fun holder ->
      if holder <> r then
        Region.iter_objects_peek lib holder (fun ~obj ~cleanup ->
            let probe base offsets =
              List.iter
                (fun off ->
                  let v = Sim.Memory.peek mem (base + off) in
                  if into v then
                    add
                      (In_region_object
                         { holder; obj; offset = base - obj + off; value = v }))
                offsets
            in
            match cleanup with
            | Cleanup.Object l -> probe obj l.Cleanup.ptr_offsets
            | Cleanup.Array l ->
                let n = Sim.Memory.peek mem (obj - 4) in
                let stride = Cleanup.stride l in
                for k = 0 to n - 1 do
                  probe (obj + (k * stride)) l.Cleanup.ptr_offsets
                done
            | Cleanup.Custom _ -> ()))
    (Region.live_regions lib);
  List.rev !refs

let explain_delete lib r =
  match references_into lib r with
  | [] ->
      Fmt.str
        "region %#x has no visible references at all (not even a handle): \
         deleteregion needs the handle's location"
        r
  | [ single ] ->
      Fmt.str "region %#x is deletable: the only reference is its handle (%a)"
        r pp_reference single
  | refs ->
      Fmt.str
        "region %#x is NOT deletable: %d references exist (one may be the \
         handle):@.%a"
        r (List.length refs)
        Fmt.(list ~sep:(any "@.") (any "  - " ++ pp_reference))
        refs

let iter_objects lib r f = Region.iter_objects_peek lib r f
