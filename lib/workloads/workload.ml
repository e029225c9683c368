type size = Quick | Full

type spec = {
  name : string;
  description : string;
  region_only : bool;
  run : Api.t -> size -> string;
}

let check_cell spec mode =
  match mode with
  | Api.Direct b when spec.region_only ->
      Error
        (Fmt.str "%s is region-based: its malloc run is mode %s" spec.name
           (Api.mode_name (Api.Emulated b)))
  | _ -> Ok ()

(* The parameters for an input size. *)
let sized size ~quick ~full = match size with Quick -> quick | Full -> full

let cfrac =
  {
    name = "cfrac";
    description = "factor a large integer with the continued fraction method";
    region_only = false;
    run =
      (fun api size ->
        let o =
          Cfrac.run api
            (sized size ~quick:Cfrac.default_params ~full:Cfrac.medium_params)
        in
        Fmt.str "factor=%s iterations=%d relations=%d"
          (Option.value ~default:"none" o.Cfrac.factor)
          o.Cfrac.iterations o.Cfrac.relations);
  }

let grobner =
  {
    name = "grobner";
    description = "Groebner basis of a polynomial set (Buchberger)";
    region_only = false;
    run =
      (fun api size ->
        let o =
          Grobner.run api
            (sized size ~quick:Grobner.default_params ~full:Grobner.large_params)
        in
        Fmt.str "basis=%d pairs=%d zeros=%d" o.Grobner.basis_size
          o.Grobner.pairs_processed o.Grobner.reductions_to_zero);
  }

let mudlle =
  {
    name = "mudlle";
    description = "byte-code compiler for a scheme-like language";
    region_only = true;
    run =
      (fun api size ->
        let o =
          Mudlle.run api
            (sized size ~quick:Mudlle.default_params ~full:Mudlle.large_params)
        in
        Fmt.str "functions=%d code_words=%d checksum=%x"
          o.Mudlle.functions_compiled o.Mudlle.code_words o.Mudlle.checksum);
  }

let lcc =
  {
    name = "lcc";
    description = "one-pass C-like compiler front end";
    region_only = true;
    run =
      (fun api size ->
        let o =
          Lcc.run api (sized size ~quick:Lcc.default_params ~full:Lcc.large_params)
        in
        Fmt.str "statements=%d triples=%d checksum=%x" o.Lcc.statements
          o.Lcc.triples o.Lcc.checksum);
  }

let tile =
  {
    name = "tile";
    description = "partition text into subsections by word frequency";
    region_only = false;
    run =
      (fun api size ->
        let o =
          Tile.run api
            (sized size ~quick:Tile.default_params ~full:Tile.large_params)
        in
        Fmt.str "tokens=%d blocks=%d boundaries=%d checksum=%x" o.Tile.tokens
          o.Tile.blocks o.Tile.boundaries o.Tile.checksum);
  }

let moss_with ~optimized =
  {
    name = (if optimized then "moss" else "moss-slow");
    description =
      (if optimized then
         "plagiarism detection by winnowing (two-region locality layout)"
       else "plagiarism detection by winnowing (single-region layout)");
    region_only = false;
    run =
      (fun api size ->
        let base =
          sized size ~quick:Moss.default_params ~full:Moss.large_params
        in
        let o = Moss.run api { base with Moss.optimized } in
        Fmt.str "fingerprints=%d matches=%d best=(%d,%d) checksum=%x"
          o.Moss.fingerprints o.Moss.matches (fst o.Moss.best_pair)
          (snd o.Moss.best_pair) o.Moss.checksum);
  }

let moss = moss_with ~optimized:true
let moss_slow = moss_with ~optimized:false

let game_with ~correlated =
  {
    name = (if correlated then "game-correlated" else "game");
    description =
      (if correlated then
         "the game counter-example with wave-correlated lifetimes (control)"
       else
         "the paper's counter-example: play-driven lifetimes defeat regions");
    region_only = false;
    run =
      (fun api _size ->
        let params =
          if correlated then Game.correlated_params else Game.default_params
        in
        let o = Game.run api params in
        Fmt.str "spawned=%d peak_entities=%d peak_live_kb=%d" o.Game.spawned
          o.Game.peak_live_entities
          (o.Game.peak_live_bytes / 1024));
  }

let game = game_with ~correlated:false
let game_correlated = game_with ~correlated:true

let server_params n size =
  let base =
    sized size ~quick:Server.default_params ~full:Server.large_params
  in
  {
    base with
    Server.mutators = n;
    requests = base.Server.requests * n / base.Server.mutators;
    seed = base.Server.seed + n;
  }

let server_with n =
  {
    name = Fmt.str "server-%d" n;
    description =
      Fmt.str
        "%d-mutator server: per-request region lifecycles under a \
         deterministic quantum schedule"
        n;
    region_only = false;
    run =
      (fun api size ->
        let o = Server.run api (server_params n size) in
        Fmt.str "served=%d allocs=%d handoffs=%d interleave=%x checksum=%x"
          o.Server.served o.Server.allocs o.Server.handoffs
          o.Server.interleave_hash o.Server.checksum);
  }

let server1 = server_with 1
let server2 = server_with 2
let server4 = server_with 4
let server8 = server_with 8
let all = [ cfrac; grobner; mudlle; lcc; tile; moss ]

let extras =
  [ moss_slow; game; game_correlated; server1; server2; server4; server8 ]

let find name =
  let every = all @ extras in
  match List.find_opt (fun s -> s.name = name) every with
  | Some s -> s
  | None ->
      invalid_arg
        (Fmt.str "unknown workload %s (have: %s)" name
           (String.concat ", " (List.map (fun s -> s.name) every)))

let modes_for spec =
  let backends = [ Api.Sun; Api.Bsd; Api.Lea; Api.Gc ] in
  let malloc_modes =
    if spec.region_only then List.map (fun b -> Api.Emulated b) backends
    else List.map (fun b -> Api.Direct b) backends
  in
  malloc_modes @ [ Api.Region { safe = true }; Api.Region { safe = false } ]

type run = {
  api : Api.t;
  workload : string;
  outcome : (string, exn * Printexc.raw_backtrace) result;
  injected : Fault.Inject.t option;
}

let run ?observer ?plan spec mode size =
  Result.iter_error invalid_arg (check_cell spec mode);
  let api = Api.create ~with_cache:true ?observer mode in
  let attempt () =
    match spec.run api size with
    | summary -> Ok summary
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let outcome, injected =
    match plan with
    | None -> (attempt (), None)
    | Some plan ->
        Fault.Inject.with_plan ~plan (Api.memory api) (fun inj ->
            (attempt (), Some inj))
  in
  (match observer with
  | Some (Api.Tracer tr) -> Obs.Tracer.finish tr
  | Some (Api.Sink _) | None -> ());
  { api; workload = spec.name; outcome; injected }

let collect r =
  match r.outcome with
  | Ok summary -> Results.collect r.api ~workload:r.workload ~summary
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let run_collect spec mode size = collect (run spec mode size)
