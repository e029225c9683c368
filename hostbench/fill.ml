(* The [report] and [replay] workloads: the 37 quick cells of the
   paper's evaluation, filled at one domain.

   [report] is what `repro experiment all` costs: every cell executes
   in full with the cache model on, into a fresh cell-cache directory,
   and the tables and figures are rendered.  [replay] fills the same
   cells record-once/replay-per-column with no cell cache: the
   allocators run from [Trace.Record]/[Trace.Format]/[Trace.Replay]
   and the cache model is off on the replayed cells. *)

module M = Harness.Matrix
module W = Workloads.Workload

let render m =
  String.concat "\n"
    [
      Harness.Table1.render ();
      Harness.Table23.render_table2 m;
      Harness.Table23.render_table3 m;
      Harness.Fig8.render m;
      Harness.Fig9.render m;
      Harness.Fig10.render m;
      Harness.Fig11.render m;
      Harness.Claims.render m;
      Harness.Ablations.render ();
      Harness.Limitation.render ();
    ]

(* Smoke passes fill the cfrac row alone (cell by cell, no render):
   enough to check the output's shape in seconds. *)
let cells (ctx : Wl.ctx) =
  let all = M.report_cells () in
  if ctx.smoke then List.filter (fun ((s : W.spec), _) -> s.name = "cfrac") all
  else all

let is_benchmark workload =
  List.exists (fun (s : W.spec) -> s.name = workload) W.all

(* The layer a cell's time belongs to.  Under replay the recording
   columns execute in full with the recorder attached, every other
   column of a benchmark replays; extras (moss-slow) run plainly. *)
let layer ~replay (c : M.cell_timing) =
  if not replay then "workloads"
  else if M.replayed_column ~mode:c.mode then "trace_replay"
  else if is_benchmark c.workload then "trace_record"
  else "workloads"

let setup ~replay (ctx : Wl.ctx) =
  let golden = Gate.load_golden () in
  (* One cell before timing, so lazy process set-up (the build id the
     cell cache keys on, the first heap growth) is not charged to the
     first pass. *)
  ignore (W.run_collect (W.find "cfrac") (Workloads.Api.Direct Workloads.Api.Sun) W.Quick);
  let dir = ref None in
  let last = ref [] in
  let drop_dir () = Option.iter Wl.rm_rf !dir in
  let pass spans =
    drop_dir ();
    let d = Wl.fresh_dir ctx (if replay then "replay" else "report") in
    dir := Some d;
    (* A replay matrix without a cell cache records its traces as temp
       files: keep them in this pass's directory. *)
    Filename.set_temp_dir_name d;
    let ops = ref [] in
    let on_cell (c : M.cell_timing) ~cycles:_ =
      let stop = Span.now () in
      let start = stop -. c.wall_s and name = c.workload ^ "/" ^ c.mode in
      ops := Wl.op name ~start ~stop :: !ops;
      Span.record spans ~layer:(layer ~replay c) name
        ~attrs:[ ("workload", c.workload); ("column", Wl.column c.mode) ]
        ~start ~stop;
      Calib.tick spans
    in
    let m, start, stop =
      Wl.interval (fun () ->
          let m =
            if replay then M.create ~replay:true W.Quick
            else M.create ~disk:(Results.Cache.create ~dir:d ()) W.Quick
          in
          if ctx.smoke then
            List.iter
              (fun ((spec : W.spec), mode) ->
                let r, wall_s = Wl.timed (fun () -> M.get m spec mode) in
                on_cell
                  { M.workload = spec.name; mode = r.Workloads.Results.mode; wall_s }
                  ~cycles:r.Workloads.Results.cycles)
              (cells ctx)
          else begin
            Span.with_span spans ~layer:"harness" "Matrix.run_all" (fun () ->
                ignore (M.run_all ~domains:1 ~on_cell m));
            if not replay then
              Span.with_span spans ~layer:"harness" "render" (fun () ->
                  ignore (render m))
          end;
          m)
    in
    let results =
      List.map (fun c -> c.Results.Cell.result) (Results.Store.to_list (M.store m))
    in
    last := results;
    let check (r : Workloads.Results.t) =
      if replay && M.replayed_column ~mode:r.mode then
        Gate.matches ~only:Gate.allocator_side golden r
      else Gate.matches golden r
    in
    Wl.pass ~start ~stop ~ops:!ops
      ~work:(List.fold_left (fun n r -> n + r.Workloads.Results.req_allocs) 0 results)
      ~attempted:(List.length results)
      ~failed:(Gate.count_failed check results)
      ()
  in
  let cell_seconds spans layer =
    Wl.sum
      (fun (s : Span.span) -> s.stop -. s.start)
      (List.filter (fun (s : Span.span) -> s.layer = layer) (Span.spans spans))
  in
  (* Re-run the full-execution cells with the cache model off: what
     they lose is the Sim.Cache share of the cell time. *)
  let cache_ablation spans ~passes =
    let off =
      Wl.sum
        (fun ((spec : W.spec), mode) ->
          snd
            (Wl.timed (fun () ->
                 let api = Workloads.Api.create ~with_cache:false mode in
                 let summary = spec.run api W.Quick in
                 Workloads.Results.collect api ~workload:spec.name ~summary)))
        (cells ctx)
    in
    let on = cell_seconds spans "workloads" in
    [ ("workloads", "sim_cache", on -. (off *. float_of_int passes)) ]
  in
  (* Replayed cells spend part of their time decoding: a decode-only
     pass over each trace, once per column that replays it.  Recording
     cells spend part of theirs executing: a plain run of each. *)
  let replay_ablation ~passes =
    let d = Option.get !dir in
    let consumers f =
      let path = Filename.concat d f in
      match Trace.Format.open_file path with
      | Error msg -> failwith msg
      | Ok rd ->
          let hdr = Trace.Format.header rd in
          Trace.Format.close rd;
          let replays mode =
            Trace.Record.variant_of_mode mode = hdr.Trace.Format.variant
            && M.replayed_column ~mode:(Workloads.Api.mode_name mode)
          in
          ( path,
            List.length
              (List.filter replays (W.modes_for (W.find hdr.Trace.Format.workload))) )
    in
    let decode, records, bytes =
      Array.to_list (Sys.readdir d)
      |> List.filter (fun f -> Filename.check_suffix f ".trace")
      |> List.map consumers |> Wl.decode_cost
    in
    let plain =
      Wl.sum
        (fun ((spec : W.spec), mode) ->
          if is_benchmark spec.name && not (M.replayed_column ~mode:(Workloads.Api.mode_name mode))
          then snd (Wl.timed (fun () -> W.run_collect spec mode W.Quick))
          else 0.)
        (cells ctx)
    in
    let p = float_of_int passes in
    ( [ ("trace_replay", "trace_format", decode *. p); ("trace_record", "workloads", plain *. p) ],
      [ ("trace.records", records); ("trace.bytes", bytes) ] )
  in
  let layers spans ~passes =
    if replay then
      let moves, counts = replay_ablation ~passes in
      { Wl.moves; counts = counts @ Wl.sim_counts !last }
    else { Wl.moves = cache_ablation spans ~passes; counts = Wl.sim_counts !last }
  in
  { Wl.pass; layers; rss_kb = Wl.self_rss_kb; teardown = drop_dir }

let workload ~replay =
  {
    Wl.name = (if replay then "replay" else "report");
    setup_reps = 49;
    prepare = (fun ctx () -> setup ~replay ctx);
  }

let report = workload ~replay:false
let replay = workload ~replay:true
