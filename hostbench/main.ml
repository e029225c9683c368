(* Host-time benchmark: command line and run loop.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --smoke BENCHMARK.json

   An untraced run sets the workload up several times (the median is
   setup_s), then repeats its pass for about S seconds and prints the
   end-to-end metrics; every time is scaled to the reference host speed
   (Calib).  A traced run does one untraced and one traced phase of the
   same passes, the workload's ablations and the layer kernels, and
   prints the per-layer metrics; its spans go to .hostbench/traces/ as
   Chrome trace JSON.  Either way the last line of stdout is one JSON
   object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   A run whose outputs disagree with the reference exits 1. *)

open Hostbench
module J = Results.Json

let () =
  match Array.to_list Sys.argv with
  | [ _; "--serve-daemon"; socket; cache_dir ] ->
      Servewarm.daemon_main ~socket ~cache_dir
  | _ -> ()

let workloads =
  [ Fill.report; Fill.replay; Genreplay.workload; Bumppath.workload; Servewarm.workload ]

(* ---- metric catalogue ---------------------------------------------- *)

let end_to_end =
  [
    ("wall_s", "s");
    ("ns_per_op", "ns");
    ("setup_s", "s");
    ("peak_rss_kb", "KB");
  ]

let layers =
  [ "harness"; "workloads"; "sim_cache"; "trace_record"; "trace_format";
    "trace_replay"; "serve"; "protocol" ]

let cell_workloads = [ "cfrac"; "grobner"; "mudlle"; "lcc"; "moss"; "tile"; "moss-slow" ]
let columns = [ "sun"; "bsd"; "lea"; "gc"; "region"; "unsafe" ]

let counts =
  [
    ("sim.instrs", "count"); ("sim.cycles", "count"); ("sim.allocs", "count");
    ("sim.alloc_instrs_per_alloc", "instrs"); ("bump.hit_rate", "ratio");
    ("bump.refills", "count"); ("bump.contended_refills", "count");
    ("sched.handoffs", "count"); ("trace.records", "count");
    ("trace.bytes", "bytes"); ("serve.requests", "count");
    ("results_cache.hits", "count");
  ]

let per_layer =
  [
    ("traced_wall_s", "s"); ("unattributed_s", "s");
    ("trace_overhead_ratio", "ratio"); ("spans", "count");
    ("op.p50_us", "us"); ("op.p99_us", "us"); ("op.samples", "count");
  ]
  @ List.map (fun l -> ("share." ^ l, "%")) layers
  @ List.map (fun w -> ("cell_share." ^ w, "%")) cell_workloads
  @ List.map (fun c -> ("column_share." ^ c, "%")) columns
  @ counts
  @ List.map (fun k -> (k, "ns")) Kernels.names

(* ---- runs ----------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* Repeat the pass until about [seconds] have elapsed: another pass
   starts while it would end nearer the target than stopping now. *)
let phase (inst : Wl.instance) spans ~seconds =
  let t0 = Span.now () in
  let rec go acc =
    Calib.tick spans;
    let p = inst.pass spans in
    let acc = p :: acc in
    if Span.now () -. t0 +. ((p.stop -. p.start) /. 2.) < seconds then go acc
    else List.rev acc
  in
  let passes = go [] in
  Calib.sample ();
  passes

(* A pass's operations, each scaled to the reference host speed. *)
let scaled (p : Wl.pass) =
  List.map
    (fun (o : Wl.op) -> (o.name, o.seconds *. Calib.factor ~start:o.start ~stop:o.stop ()))
    p.ops

let unscaled (p : Wl.pass) = List.map (fun (o : Wl.op) -> (o.name, o.seconds)) p.ops

(* One pass's time from the median of each of its operations over the
   phase: a slow stretch of the host spoils a few samples of each
   operation rather than whole passes. *)
let pass_estimate scaled_passes =
  let samples = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (name, t) ->
         let ts = Option.value ~default:[] (Hashtbl.find_opt samples name) in
         Hashtbl.replace samples name (t :: ts)))
    scaled_passes;
  let n = float_of_int (List.length scaled_passes) in
  Hashtbl.fold
    (fun _ ts acc -> acc +. (Stats.median ts *. float_of_int (List.length ts) /. n))
    samples 0.

let pass_seconds = List.map (Wl.sum snd)

(* A set-up, timed and scaled like an operation: the instance, its raw
   and its scaled seconds. *)
let timed_setup setup =
  Calib.sample ();
  let inst, start, stop = Wl.interval setup in
  Calib.sample ();
  (inst, stop -. start, (stop -. start) *. Calib.factor ~start ~stop ())

let totals passes =
  List.fold_left
    (fun (a, f) (p : Wl.pass) -> (a + p.attempted, f + p.failed))
    (0, 0) passes

let with_instance inst f =
  match f inst with
  | v ->
      inst.Wl.teardown ();
      v
  | exception e ->
      (try inst.Wl.teardown () with _ -> ());
      raise e

let since t0 = (t0, Span.now ())

let untraced (w : Wl.t) ctx ~seconds =
  (* Probes before any workload code has run, spaced like those of the
     timed phase: the host's speed alone, to compare with them. *)
  let idle = Span.now () in
  for _ = 1 to 9 do
    Unix.sleepf 0.05;
    Calib.sample ()
  done;
  let idle = since idle in
  let setup = w.prepare ctx in
  let reps = if ctx.Wl.smoke then 1 else w.setup_reps in
  let rec setups i acc =
    let inst, raw, dt = timed_setup setup in
    let acc = (raw, dt) :: acc in
    if i < reps then begin
      inst.teardown ();
      setups (i + 1) acc
    end
    else (inst, acc)
  in
  let inst, setup_times = setups 1 [] in
  let timed = Span.now () in
  let passes, rss =
    with_instance inst (fun inst ->
        let passes = phase inst Span.off ~seconds in
        (passes, inst.rss_kb ()))
  in
  let timed = since timed in
  let attempted, failed = totals passes in
  let scaled_passes = List.map scaled passes in
  let wall = pass_estimate scaled_passes in
  let work = Stats.median (List.map (fun (p : Wl.pass) -> float_of_int p.work) passes) in
  let probe_us (start, stop) = Option.get (Calib.median_probe ~start ~stop) *. 1e6 in
  Printf.eprintf "%s: %d pass(es); one pass %.4f s at reference host speed\n%!" w.name
    (List.length passes) wall;
  (* The same estimates unscaled, and the probe times behind the
     scaling, so that the correction can be checked (baseline.py
     records this line). *)
  prerr_endline
    ("hostbench-raw "
    ^ J.to_string ~indent:false
        (J.Obj
           [
             ("wall_s", J.Float (pass_estimate (List.map unscaled passes)));
             ("setup_s", J.Float (Stats.median (List.map fst setup_times)));
             ("probe_idle_us", J.Float (probe_us idle));
             ("probe_timed_us", J.Float (probe_us timed));
           ]));
  {
    attempted;
    failed;
    metrics =
      [
        ("wall_s", wall);
        ("ns_per_op", wall *. 1e9 /. Float.max 1. work);
        ("setup_s", Stats.median (List.map snd setup_times));
        ("peak_rss_kb", float_of_int rss);
      ];
  }

let trace_dir = Filename.concat ".hostbench" "traces"

let traced (w : Wl.t) ctx ~seconds ~golden =
  let seconds = Float.min seconds 0.5 in
  let spans = Span.create () in
  let reference, passes, layer_report =
    with_instance (w.prepare ctx ()) (fun inst ->
        let reference = phase inst Span.off ~seconds in
        let passes =
          Span.with_span spans ~layer:"bench" "traced phase" (fun () ->
              phase inst spans ~seconds)
        in
        (reference, passes, inst.layers spans ~passes:(List.length passes)))
  in
  let kernels =
    Kernels.run ~work_dir:ctx.Wl.work_dir
      ~cell:(List.hd (Results.Store.to_list golden))
      ~quota_s:(if ctx.smoke then 0.01 else 0.15)
  in
  let root =
    List.find (fun (s : Span.span) -> s.parent = -1) (Span.spans spans)
  in
  let wall = root.stop -. root.start in
  let self = Span.self_by_layer spans in
  let get l = Option.value ~default:0. (Hashtbl.find_opt self l) in
  List.iter
    (fun (from, into, s) ->
      let s = Float.max 0. (Float.min s (get from)) in
      Hashtbl.replace self from (get from -. s);
      Hashtbl.replace self into (get into +. s))
    layer_report.Wl.moves;
  let share x = 100. *. x /. wall in
  let mean_pass ps =
    let secs = pass_seconds (List.map scaled ps) in
    Wl.sum Fun.id secs /. float_of_int (List.length secs)
  in
  let ops =
    Stats.sorted_array
      (List.concat_map
         (fun p -> List.filter_map (fun (n, t) -> if n = "other" then None else Some t) (scaled p))
         reference)
  in
  let samples = Array.length ops in
  Wl.mkdir_p trace_dir;
  let file =
    Filename.concat trace_dir (Printf.sprintf "%s-seed%d.json" w.name ctx.seed)
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (J.to_string (Span.to_chrome spans)));
  Printf.eprintf "%s: %d traced pass(es), %d spans -> %s; %d operations, %d beyond p99\n%!"
    w.name (List.length passes) (List.length (Span.spans spans)) file samples
    (Stats.beyond ~n:samples 99.);
  let attempted, failed = totals (reference @ passes) in
  {
    attempted;
    failed;
    metrics =
      [
        ("traced_wall_s", wall);
        ("unattributed_s", get "bench");
        ("trace_overhead_ratio", mean_pass passes /. mean_pass reference);
        ("spans", float_of_int (List.length (Span.spans spans)));
        ("op.p50_us", Stats.percentile ops 50. *. 1e6);
        ("op.p99_us", Stats.percentile ops 99. *. 1e6);
        ("op.samples", float_of_int samples);
      ]
      @ List.map (fun l -> ("share." ^ l, share (get l))) layers
      @ List.map
          (fun c -> ("cell_share." ^ c, share (Span.total_with spans "workload" c)))
          cell_workloads
      @ List.map
          (fun c -> ("column_share." ^ c, share (Span.total_with spans "column" c)))
          columns
      @ layer_report.counts @ kernels;
  }

(* Every catalogued metric, in catalogue order; counters a workload
   does not touch read 0. *)
let render_metrics catalogue metrics =
  J.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0. (List.assoc_opt name metrics) in
         if not (Float.is_finite v) then
           failwith (Printf.sprintf "metric %s is not a finite number" name);
         (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
       catalogue)

let result_json catalogue o =
  J.Obj
    [
      ("correct", J.Bool (o.failed = 0));
      ("attempted", J.Int o.attempted);
      ("failed", J.Int o.failed);
      ("metrics", render_metrics catalogue o.metrics);
    ]

let run_one (w : Wl.t) ~seed ~seconds ~trace ~smoke =
  let work_dir =
    Filename.concat ".hostbench" (Printf.sprintf "%s-%d" w.name (Unix.getpid ()))
  in
  Wl.mkdir_p work_dir;
  Fun.protect
    ~finally:(fun () -> Wl.rm_rf work_dir)
    (fun () ->
      let ctx = { Wl.seed; smoke; work_dir } in
      if trace then
        (per_layer, traced w ctx ~seconds ~golden:(Gate.load_golden ()))
      else (end_to_end, untraced w ctx ~seconds))

(* ---- smoke: every workload, both modes, checked against the spec ---- *)

let spec_metrics spec key =
  let text = In_channel.with_open_bin spec In_channel.input_all in
  match J.of_string text with
  | Error msg -> failwith (spec ^ ": " ^ msg)
  | Ok j ->
      List.map
        (fun m ->
          match (J.member "name" m, J.member "unit" m) with
          | Some (J.String n), Some (J.String u) -> (n, u)
          | _ -> failwith (spec ^ ": metric without name or unit"))
        (Option.value ~default:[] (Option.bind (J.member key j) J.to_list))

let valid_name n =
  n <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let smoke spec =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : Wl.t) ->
      List.iter
        (fun (trace, key) ->
          let catalogue, o = run_one w ~seed:1 ~seconds:0. ~trace ~smoke:true in
          let json = J.to_string ~indent:false (result_json catalogue o) in
          prerr_endline json;
          let declared = spec_metrics spec key in
          if o.failed > 0 then problem "%s: %d of %d outputs wrong" w.name o.failed o.attempted;
          List.iter
            (fun (n, u) ->
              if not (valid_name n) then problem "%s: bad metric name %S" key n;
              match List.assoc_opt n catalogue with
              | None -> problem "%s (%s): %s not emitted" w.name key n
              | Some u' when u' <> u -> problem "%s: %s unit %s, spec says %s" w.name n u' u
              | Some _ -> ())
            declared;
          List.iter
            (fun (n, _) ->
              if not (List.mem_assoc n declared) then
                problem "%s (%s): %s emitted but not in the spec" w.name key n)
            catalogue)
        [ (false, "end_to_end"); (true, "per_layer") ])
    workloads;
  match List.rev !problems with
  | [] -> print_endline "hostbench smoke: every workload emits every metric"
  | ps ->
      List.iter prerr_endline ps;
      exit 1

(* ---- command line ----------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let smoke_spec = ref None in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.String (fun s -> smoke_spec := Some s), "SPEC smoke-check every workload against SPEC");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match !smoke_spec with
  | Some spec -> smoke spec
  | None -> (
      match List.find_opt (fun (w : Wl.t) -> w.name = !workload) workloads with
      | None ->
          prerr_endline ("unknown workload; one of: "
            ^ String.concat ", " (List.map (fun (w : Wl.t) -> w.name) workloads));
          exit 2
      | Some w ->
          if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
          let catalogue, o =
            run_one w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~smoke:false
          in
          print_endline (J.to_string ~indent:false (result_json catalogue o));
          if o.failed > 0 then exit 1)
