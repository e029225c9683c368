type diff = {
  workload : string;
  mode : string;
  field : string;
  full : string;
  replayed : string;
}

let pp_diff ppf d =
  Fmt.pf ppf "%-10s %-12s %-18s full=%s replayed=%s" d.workload d.mode d.field
    d.full d.replayed

let region_summary_string = function
  | None -> "none"
  | Some (rs : Workloads.Results.region_summary) ->
      Fmt.str "%d/%d/%d/%.1f/%.2f" rs.total_regions rs.max_live_regions
        rs.max_region_bytes rs.avg_region_bytes rs.avg_allocs_per_region

(* The fields replay promises to reproduce exactly. *)
let allocator_side (r : Workloads.Results.t) =
  [
    ("summary", r.summary);
    ("alloc_instrs", string_of_int r.alloc_instrs);
    ("refcount_instrs", string_of_int r.refcount_instrs);
    ("stack_scan_instrs", string_of_int r.stack_scan_instrs);
    ("cleanup_instrs", string_of_int r.cleanup_instrs);
    ("os_bytes", string_of_int r.os_bytes);
    ("emu_overhead_bytes", string_of_int r.emu_overhead_bytes);
    ("req_allocs", string_of_int r.req_allocs);
    ("req_total_bytes", string_of_int r.req_total_bytes);
    ("req_max_bytes", string_of_int r.req_max_bytes);
    ("regions", region_summary_string r.regions);
  ]

(* Recording is pure observation, so the recording run must agree with
   an unrecorded run on everything, mutator side included. *)
let all_fields (r : Workloads.Results.t) =
  allocator_side r
  @ [
      ("cycles", string_of_int r.cycles);
      ("base_instrs", string_of_int r.base_instrs);
      ("read_stall_cycles", string_of_int r.read_stall_cycles);
      ("write_stall_cycles", string_of_int r.write_stall_cycles);
    ]

let compare_fields ~workload ~mode fields full replayed =
  List.filter_map
    (fun ((name, f), (name', rp)) ->
      assert (name = name');
      if f = rp then None
      else Some { workload; mode; field = name; full = f; replayed = rp })
    (List.combine (fields full) (fields replayed))

(* Two matrices over the same cells: a plain one (every cell executed)
   and the [~replay] one the report's [--replay] fill uses.  A cell
   the replay matrix executes (its recording run, or a plain run where
   no column replays the trace) must agree on every field; a replayed
   cell on the allocator side. *)
let verify ?workload ?domains ?(progress = ignore) size =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Domain.recommended_domain_count ()
  in
  let cells =
    List.filter
      (fun ((spec : Workloads.Workload.spec), _) ->
        match workload with
        | None -> true
        | Some w -> spec.Workloads.Workload.name = w)
      (Matrix.report_cells ())
    |> Array.of_list
  in
  let full = Matrix.create size and replay = Matrix.create ~replay:true size in
  let out = Array.make (Array.length cells) [] in
  let check_cell i =
    let spec, mode = cells.(i) in
    let workload = spec.Workloads.Workload.name
    and mode_name = Workloads.Api.mode_name mode in
    progress (Fmt.str "verifying %s under %s ..." workload mode_name);
    let expected = Matrix.run_cell_collect full spec mode in
    out.(i) <-
      (match Matrix.run_replay_cell replay spec mode with
      | replayed ->
          let fields =
            if Matrix.replayed_column ~mode:mode_name then allocator_side
            else all_fields
          in
          compare_fields ~workload ~mode:mode_name fields expected replayed
      | exception e ->
          [
            {
              workload;
              mode = mode_name;
              field = "exception";
              full = "completed";
              replayed = Printexc.to_string e;
            };
          ])
  in
  Matrix.parallel_for ~domains (Array.length cells) check_cell;
  (Array.length cells, List.concat (Array.to_list out))
