(* Correctness gates: a timed run only counts when what it computed
   equals the committed golden results. *)

let golden_file = "results/golden-quick.json"

let load_golden ?(path = golden_file) () =
  match Results.Store.load path with
  | Ok s -> s
  | Error msg -> failwith (Printf.sprintf "cannot load %s: %s" path msg)

(* The measurement fields trace replay promises to reproduce exactly:
   everything the allocator side decides.  This is the list
   Harness.Replaycheck.allocator_side checks for [repro replay
   --verify]; the harness does not export it, so it is repeated here
   and must change with it.  Cycles, base instructions and stalls are
   the mutator's and are not reproduced by a replay. *)
let allocator_side =
  [
    "summary"; "alloc_instrs"; "refcount_instrs"; "stack_scan_instrs";
    "cleanup_instrs"; "os_bytes"; "emu_overhead_bytes"; "req_allocs";
    "req_total_bytes"; "req_max_bytes"; "regions";
  ]

let fields (r : Workloads.Results.t) =
  match Results.Cell.encode_result r with
  | Results.Json.Obj kvs -> kvs
  | _ -> assert false

(* Does [r] agree with the golden cell of its (workload, mode)?  With
   [only], just those fields are compared; otherwise every measurement. *)
let matches ?only golden (r : Workloads.Results.t) =
  match
    Results.Store.find golden ~workload:r.Workloads.Results.workload
      ~mode:r.Workloads.Results.mode
  with
  | None -> false
  | Some cell ->
      let keep kvs =
        match only with
        | None -> kvs
        | Some names -> List.filter (fun (k, _) -> List.mem k names) kvs
      in
      keep (fields cell.Results.Cell.result) = keep (fields r)

let count_failed check results =
  List.fold_left (fun n r -> if check r then n else n + 1) 0 results
