type status =
  | Completed of string
  | Faulted of string
  | Crashed of string

type outcome = {
  workload : string;
  mode : string;
  plan : string;
  seed : int;
  status : status;
  heap : (string * string * bool) list;
  injection : string;
}

let heap_checks api =
  let verdict name f =
    match f () with
    | () -> (name, "clean", true)
    | exception Failure m -> (name, "BROKEN: " ^ m, false)
    | exception e -> (name, "BROKEN: " ^ Printexc.to_string e, false)
  in
  (match Workloads.Api.allocator api with
  | Some a ->
      [ verdict a.Alloc.Allocator.name (fun () -> a.Alloc.Allocator.check_heap ()) ]
  | None -> [])
  @
  match Workloads.Api.region_lib api with
  | Some lib -> [ verdict "regions" (fun () -> Regions.Region.check_invariants lib) ]
  | None -> []

let graceful o =
  (match o.status with Completed _ | Faulted _ -> true | Crashed _ -> false)
  && List.for_all (fun (_, _, ok) -> ok) o.heap

(* The heap walk runs after the plan's hooks are off, on cost-free
   peeks only: it maps no page, so the plan would have seen no event. *)
let run ?observer ~plan spec mode size =
  let r = Workloads.Workload.run ?observer ~plan spec mode size in
  {
    workload = r.Workloads.Workload.workload;
    mode = Workloads.Api.mode_name mode;
    plan = Fault.Plan.to_string plan;
    seed = Fault.Plan.seed plan;
    status =
      (match r.Workloads.Workload.outcome with
      | Ok summary -> Completed summary
      | Error (Sim.Memory.Fault msg, _) -> Faulted msg
      | Error (e, _) -> Crashed (Printexc.to_string e));
    heap = heap_checks r.Workloads.Workload.api;
    injection = Fault.Inject.summary (Option.get r.Workloads.Workload.injected);
  }

let pp_status ppf = function
  | Completed s -> Fmt.pf ppf "completed: %s" s
  | Faulted s -> Fmt.pf ppf "faulted (recoverable): %s" s
  | Crashed s -> Fmt.pf ppf "CRASHED: %s" s

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v>%s under %s  (plan %s, seed %d)@,  %a@,  injection: %s"
    o.workload o.mode
    (if o.plan = "" then "none" else o.plan)
    o.seed pp_status o.status o.injection;
  List.iter
    (fun (name, report, _) -> Fmt.pf ppf "@,  heap %-8s %s" name report)
    o.heap;
  Fmt.pf ppf "@,  verdict: %s@]"
    (if graceful o then "graceful degradation" else "NOT GRACEFUL")
