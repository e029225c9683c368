(* Diagnostic re-run with tracing on: deterministic cells fail the
   same way, so the artefacts captured here show exactly what led up
   to the failure.  [plan] reinstalls the fault plan of the failed run
   so injected failures reproduce too.  Returns the outcome line for
   error.txt. *)
let diagnose ~plan bundle (spec, mode, size) =
  let o, _, _ =
    Tracefiles.with_tracer ~out:bundle spec mode (fun tracer ->
        let o =
          Faultrun.run ~observer:(Workloads.Api.Tracer tracer) ~plan spec mode
            size
        in
        (* The manager-side heap report: what tells a triager "the heap
           survived the failure" (graceful degradation) versus "the
           failure left it unwalkable". *)
        Tracefiles.write_file (Filename.concat bundle "heap.txt")
          (String.concat "\n"
             (List.map
                (fun (name, report, _) -> Fmt.str "%-9s %s" (name ^ ":") report)
                o.Faultrun.heap)
          ^ "\n");
        o)
  in
  match o.Faultrun.status with
  | Faultrun.Completed summary -> "completed on re-run: " ^ summary
  | Faultrun.Faulted msg ->
      "failed on re-run: " ^ Printexc.to_string (Sim.Memory.Fault msg)
  | Faultrun.Crashed e -> "failed on re-run: " ^ e

let write_bundle ~dir ~workload ~mode ~last_error ~plan ~retrace =
  try
    let bundle = Filename.concat dir (workload ^ "-" ^ mode) in
    Tracefiles.mkdir_p bundle;
    let diagnosis =
      try diagnose ~plan bundle retrace
      with e -> "diagnostic re-run itself failed: " ^ Printexc.to_string e
    in
    Tracefiles.write_file
      (Filename.concat bundle "error.txt")
      (Fmt.str "workload   : %s\nmode       : %s\nlast error : %s\ndiagnosis  : %s\n"
         workload mode last_error diagnosis);
    Some bundle
  with _ -> None
