type files = {
  dir : string;
  events_bin : string;
  trace_json : string;
  heap_csv : string;
  sites_txt : string;
  folded : string;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A temp name no other writer in this process or another uses: the
   pid, then a per-process sequence number. *)
let tmp_seq = Atomic.make 0

let write_file path contents =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc = open_out_bin tmp in
  match
    output_string oc contents;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let stem (spec : Workloads.Workload.spec) mode =
  spec.Workloads.Workload.name ^ "-" ^ Workloads.Api.mode_name mode

let with_tracer ~out spec mode f =
  mkdir_p out;
  let base = Filename.concat out (stem spec mode) in
  let files =
    {
      dir = out;
      events_bin = base ^ ".events.bin";
      trace_json = base ^ ".trace.json";
      heap_csv = base ^ ".heap.csv";
      sites_txt = base ^ ".sites.txt";
      folded = base ^ ".folded";
    }
  in
  (* Every event goes straight to the spill file, so closing it on any
     exit leaves the complete ordered stream on disk. *)
  let oc = open_out_bin files.events_bin in
  let tracer = Obs.Tracer.create (Obs.Spill.sink oc) in
  let result =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let r = f tracer in
        (* Idempotent: [f] may already have finished the run. *)
        Obs.Tracer.finish tracer;
        r)
  in
  (* Name the process after the cell and give each mode a stable pid
     and sort index, so a directory of per-column exports opens in
     Perfetto as labelled, consistently ordered tracks. *)
  let pid =
    1
    + Option.value ~default:0
        (List.find_index (( = ) mode) Workloads.Api.all_modes)
  in
  write_file files.trace_json
    (Obs.Export.chrome_json ~pid
       ~process_name:(stem spec mode ^ " (simulated UltraSparc-I)")
       tracer
       (fun f -> Obs.Spill.read_file files.events_bin f));
  write_file files.heap_csv (Obs.Export.heap_csv tracer);
  write_file files.sites_txt
    (Obs.Export.sites_txt tracer ^ "\n" ^ Obs.Export.site_table tracer);
  write_file files.folded (Obs.Export.folded tracer);
  (result, tracer, files)

let run_traced ~out spec mode size =
  with_tracer ~out spec mode (fun tracer ->
      Workloads.Workload.(
        collect (run ~observer:(Workloads.Api.Tracer tracer) spec mode size)))
