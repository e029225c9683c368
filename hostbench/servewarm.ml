(* [serve-warm]: a cell daemon with one worker whose cell cache holds
   valid cells, driven by one client over one connection as a closed
   loop — each request is sent when the previous reply has arrived.
   Every request hits the warm cell cache, so no simulation runs: the
   cost is Results.Cache, the wire protocol and the daemon's loop.

   The cells are computed once per run, untimed (their simulation is
   what [report] measures).  The timed set-up is what a restart costs:
   a fresh daemon on that cache directory, replaying its journal, and
   one warm request for each cell. *)

module P = Serve.Protocol
module W = Workloads.Workload

(* cfrac, tile and grobner under each of their six columns. *)
let cells (ctx : Wl.ctx) =
  List.concat_map
    (fun name ->
      List.map
        (fun m -> (name, Workloads.Api.mode_name m))
        (W.modes_for (W.find name)))
    (if ctx.smoke then [ "cfrac" ] else [ "cfrac"; "tile"; "grobner" ])

(* The daemon process: the benchmark executable re-invoked with
   [--serve-daemon SOCKET CACHE_DIR]. *)
let daemon_main ~socket ~cache_dir =
  let cfg =
    {
      (Serve.Daemon.default_config ~socket ~cache_dir
         ~journal:(Filename.concat cache_dir "serve.journal"))
      with
      Serve.Daemon.workers = 1;
    }
  in
  match Serve.Daemon.run cfg with
  | Ok () -> exit 0
  | Error msg ->
      prerr_endline ("serve-warm daemon: " ^ msg);
      exit 2

let connect socket =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
        fd
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        (* Short: the daemon starts in about 10 ms, and set-up time is
           measured to well under that. *)
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

type daemon = { pid : int; socket : string; dir : string; mutable fd : Unix.file_descr }

(* A daemon on [cache_dir] and a connection to it. *)
let start (ctx : Wl.ctx) ~cache_dir =
  let dir = Wl.fresh_dir ctx "serve" in
  let socket = Filename.concat dir "d.sock" in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve-daemon"; socket; cache_dir |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  match connect socket with
  | fd -> { pid; socket; dir; fd }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

let stop d =
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () -> Wl.rm_rf d.dir)
    (fun () ->
      match Unix.waitpid [] d.pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> failwith "serve-warm: the daemon did not exit cleanly")

let exchange d req =
  match P.write_frame d.fd (P.encode_request req) with
  | () -> Result.bind (P.read_frame d.fd) P.decode_response
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* One request for every cell; [check] sees each reply's cell, or
   fails the whole load. *)
let load ctx d check =
  List.iteri
    (fun id (workload, mode) ->
      match exchange d (P.request ~id ~workload ~mode ~size:"quick" ()) with
      | Ok (P.Cell { warm; cell; _ }) when check (workload, mode) ~warm cell -> ()
      | _ -> failwith ("serve-warm: no valid cell for " ^ workload ^ "/" ^ mode))
    (cells ctx)

let with_daemon d f =
  match f () with
  | v -> v
  | exception e ->
      (try stop d with _ -> ());
      raise e

let prepare (ctx : Wl.ctx) =
  let golden = Gate.load_golden () in
  let cache_dir = Wl.fresh_dir ctx "serve-cache" in
  (* Every cell computed cold and checked against the golden results;
     its bytes become the reference for the warm replies. *)
  let reference = Hashtbl.create 32 in
  let d = start ctx ~cache_dir in
  with_daemon d (fun () ->
      load ctx d (fun key ~warm:_ cell ->
          match Results.Cell.of_json cell with
          | Ok c when Gate.matches golden c.Results.Cell.result ->
              Hashtbl.replace reference key (Results.Json.to_string ~indent:false cell);
              true
          | _ -> false));
  stop d;
  let same key cell = Results.Json.to_string ~indent:false cell = Hashtbl.find reference key in
  let order = Array.of_list (cells ctx) in
  let rng = Random.State.make [| ctx.seed |] in
  let shuffle () =
    for i = Array.length order - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done
  in
  fun () ->
    let d = start ctx ~cache_dir in
    with_daemon d (fun () -> load ctx d (fun key ~warm cell -> warm && same key cell));
    let traced_requests = ref 0 and traced_warm = ref 0 in
    (* One round: every warm cell requested once, in seeded order; the
       replies are checked after the round. *)
    let pass spans =
      shuffle ();
      let request id (workload, mode) =
        let req = P.request ~id ~workload ~mode ~size:"quick" () in
        let resp, start, stop =
          Wl.interval (fun () ->
              let payload =
                Span.with_span spans ~layer:"protocol" "encode_request" (fun () ->
                    P.encode_request req)
              in
              let reply =
                Span.with_span spans ~layer:"serve"
                  ~attrs:[ ("column", Wl.column mode); ("workload", workload) ]
                  "roundtrip" (fun () ->
                    match P.write_frame d.fd payload with
                    | () -> P.read_frame d.fd
                    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
              in
              Span.with_span spans ~layer:"protocol" "decode_response" (fun () ->
                  Result.bind reply P.decode_response))
        in
        if Result.is_error resp then begin
          (try Unix.close d.fd with Unix.Unix_error _ -> ());
          d.fd <- connect d.socket
        end;
        ((workload, mode), resp, Wl.op (workload ^ "/" ^ mode) ~start ~stop)
      in
      let replies, start, stop =
        Wl.interval (fun () -> Array.to_list (Array.mapi request order))
      in
      let correct (key, resp, _) =
        match resp with
        | Ok (P.Cell { warm; cell; _ }) when same key cell ->
            if Span.enabled spans then begin
              incr traced_requests;
              if warm then incr traced_warm
            end;
            true
        | Ok _ -> false
        | Error msg ->
            Printf.eprintf "serve-warm: %s/%s: %s\n%!" (fst key) (snd key) msg;
            false
      in
      Wl.pass ~start ~stop ~work:(List.length replies)
        ~ops:(List.map (fun (_, _, op) -> op) replies)
        ~attempted:(List.length replies)
        ~failed:(List.length (List.filter (fun r -> not (correct r)) replies))
        ()
    in
    let layers _spans ~passes:_ =
      {
        Wl.moves = [];
        counts =
          [
            ("serve.requests", float_of_int !traced_requests);
            ("results_cache.hits", float_of_int !traced_warm);
          ];
      }
    in
    {
      Wl.pass;
      layers;
      rss_kb = (fun () -> Wl.vmhwm_kb (string_of_int d.pid));
      teardown = (fun () -> stop d);
    }

let workload = { Wl.name = "serve-warm"; setup_reps = 25; prepare }
