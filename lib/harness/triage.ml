(* The manager-side heap report: every checkable structure of the
   failed cell's memory manager, walked cost-free.  This is what tells
   a triager "the heap survived the failure" (graceful degradation)
   versus "the failure left it unwalkable". *)
let heap_report api =
  String.concat "\n"
    (List.map
       (fun (name, report, _) -> Fmt.str "%-9s %s" (name ^ ":") report)
       (Faultrun.heap_checks api))
  ^ "\n"

(* Diagnostic re-run with tracing on: deterministic cells fail the
   same way, so the artefacts captured here show exactly what led up
   to the failure.  [plan] reinstalls the fault plan of the failed run
   so injected failures reproduce too.  Returns the outcome line for
   error.txt. *)
let diagnose ?plan bundle (spec, mode, size) =
  let outcome, _, _ =
    Tracefiles.with_tracer ~out:bundle spec mode (fun tracer ->
        let api = Workloads.Api.create ~with_cache:true ~tracer mode in
        let run_workload () =
          match spec.Workloads.Workload.run api size with
          | summary -> "completed on re-run: " ^ summary
          | exception e -> "failed on re-run: " ^ Printexc.to_string e
        in
        let outcome =
          match plan with
          | None -> run_workload ()
          | Some plan ->
              Fault.Inject.with_plan ~plan (Workloads.Api.memory api)
                (fun _ -> run_workload ())
        in
        Tracefiles.write_file (Filename.concat bundle "heap.txt")
          (heap_report api);
        outcome)
  in
  outcome

let write_bundle ~dir ~workload ~mode ~attempts ~last_error ~backtrace ?plan
    ?retrace () =
  try
    let bundle = Filename.concat dir (workload ^ "-" ^ mode) in
    Tracefiles.mkdir_p bundle;
    let diagnosis =
      match retrace with
      | None -> "diagnostic re-run skipped (timeout or unavailable)"
      | Some cell -> (
          try diagnose ?plan bundle cell
          with e -> "diagnostic re-run itself failed: " ^ Printexc.to_string e)
    in
    Tracefiles.write_file
      (Filename.concat bundle "error.txt")
      (Fmt.str
         "workload   : %s\nmode       : %s\nattempts   : %d\nlast error : \
          %s\ndiagnosis  : %s\nbacktrace  :\n%s"
         workload mode attempts last_error diagnosis backtrace);
    Some bundle
  with _ -> None
