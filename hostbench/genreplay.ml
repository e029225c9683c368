(* [gen-replay]: streaming replay of two generated traces, seeded from
   the run's seed — a malloc trace on the sun, bsd, lea and gc columns
   and a region trace on the region and unsafe columns.  No mutator
   compute and no cache model: trace decoding and the allocators are
   the whole cost. *)

module Api = Workloads.Api

let columns =
  [ ("malloc", [ "sun"; "bsd"; "lea"; "gc" ]); ("region", [ "region"; "unsafe" ]) ]

let mode_of name = List.find (fun m -> Api.mode_name m = name) Api.all_modes

let setup (ctx : Wl.ctx) =
  let dir = Wl.fresh_dir ctx "gen" in
  let objects = if ctx.smoke then 20_000 else 1_000_000 in
  let traces =
    List.map
      (fun (variant, modes) ->
        let path = Filename.concat dir (variant ^ ".trace") in
        Trace.Gen.generate ~out:path
          { Trace.Gen.default with Trace.Gen.objects; variant; seed = ctx.seed };
        (path, modes))
      columns
  in
  (* Every pass must reproduce the first pass's results exactly. *)
  let reference = Hashtbl.create 8 in
  let last = ref [] in
  let replay spans path mode =
    Span.with_span spans ~layer:"trace_replay" ~attrs:[ ("column", mode) ]
      ("replay " ^ Filename.basename path ^ " " ^ mode)
      (fun () ->
        let rd =
          Span.with_span spans ~layer:"trace_format" "open" (fun () ->
              match Trace.Format.open_file path with
              | Ok rd -> rd
              | Error msg -> failwith msg)
        in
        Fun.protect
          ~finally:(fun () -> Trace.Format.close rd)
          (fun () ->
            match Trace.Replay.run rd (mode_of mode) with
            | r -> Ok (r, Trace.Format.records rd)
            | exception Trace.Replay.Divergence msg -> Error msg))
  in
  let pass spans =
    let outcomes, start, stop =
      Wl.interval (fun () ->
          List.concat_map
            (fun (path, modes) ->
              List.map
                (fun mode ->
                  Calib.tick spans;
                  let out, start, stop = Wl.interval (fun () -> replay spans path mode) in
                  ((path, mode), out, Wl.op (Filename.basename path ^ " " ^ mode) ~start ~stop))
                modes)
            traces)
    in
    let failed = ref 0 and records = ref 0 in
    last := [];
    List.iter
      (fun (key, out, _) ->
        match out with
        | Error msg ->
            Printf.eprintf "gen-replay: %s under %s diverged: %s\n%!" (fst key)
              (snd key) msg;
            incr failed
        | Ok (r, n) -> (
            records := !records + n;
            last := r :: !last;
            match Hashtbl.find_opt reference key with
            | None -> Hashtbl.replace reference key r
            | Some r0 -> if r0 <> r then incr failed))
      outcomes;
    Wl.pass ~start ~stop ~work:!records
      ~ops:(List.map (fun (_, _, op) -> op) outcomes)
      ~attempted:(List.length outcomes) ~failed:!failed ()
  in
  (* A decode-only pass over each trace, once per column replaying it:
     the Trace.Format share of the replays. *)
  let layers _spans ~passes =
    let decode, records, bytes =
      Wl.decode_cost (List.map (fun (path, modes) -> (path, List.length modes)) traces)
    in
    {
      Wl.moves =
        [ ("trace_replay", "trace_format", decode *. float_of_int passes) ];
      counts =
        [ ("trace.records", records); ("trace.bytes", bytes) ] @ Wl.sim_counts !last;
    }
  in
  {
    Wl.pass;
    layers;
    rss_kb = Wl.self_rss_kb;
    teardown = (fun () -> Wl.rm_rf dir);
  }

let workload = { Wl.name = "gen-replay"; setup_reps = 9; prepare = (fun ctx () -> setup ctx) }
