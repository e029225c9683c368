(* Tests for the cell daemon: wire-protocol framing and codecs, live
   daemon behaviour over a real Unix socket (cold/warm serving,
   malformed-frame survival, deterministic admission control, deadline
   expiry, journal recovery after kill -9), and the chaos property:
   kill the daemon at a random instant mid-load, restart it, and the
   served cell set must be byte-identical to an uninterrupted run with
   zero corrupt cache entries. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

module P = Serve.Protocol

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_frame_roundtrip () =
  let payloads = [ "x"; "{\"id\":1}"; String.make 4096 'q' ] in
  let stream = String.concat "" (List.map P.encode_frame payloads) in
  (* worst-case delivery: one byte per feed *)
  let d = P.decoder () in
  let out = ref [] in
  String.iter
    (fun c ->
      P.feed d (String.make 1 c);
      match P.next d with
      | Ok (Some p) -> out := p :: !out
      | Ok None -> ()
      | Error e -> Alcotest.failf "spurious decode error: %s" e)
    stream;
  Alcotest.(check (list string))
    "byte-at-a-time reassembly" payloads (List.rev !out);
  check_int "nothing left buffered" 0 (P.buffered d)

let test_frame_violations () =
  let reject name bytes =
    let d = P.decoder () in
    P.feed d bytes;
    match P.next d with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ " should be a protocol violation")
  in
  reject "zero-length frame" "\x00\x00\x00\x00";
  reject "oversize declared length" "\xff\xff\xff\xffjunk";
  (* an incomplete header is not a violation, just more-bytes-needed *)
  let d = P.decoder () in
  P.feed d "\x00\x00";
  (match P.next d with
  | Ok None -> ()
  | Ok (Some _) | Error _ -> Alcotest.fail "short header must be Ok None");
  (match P.encode_frame "" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoding an empty frame should be rejected");
  match P.encode_frame (String.make (P.max_frame + 1) 'x') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoding an oversize frame should be rejected"

let test_request_roundtrip () =
  let r =
    P.request ~id:7 ~seed:3 ~plan:"budget=8,ramp=0:0.01" ~deadline_s:1.5
      ~workload:"cfrac" ~mode:"region" ~size:"full" ()
  in
  (match P.decode_request (P.encode_request r) with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok r' ->
      check_bool "round-trips" true (r = r');
      check_str "dedupe key carries the whole identity"
        "cfrac|region|full|3|budget=8,ramp=0:0.01" (P.key_of_request r));
  (* deadline is optional *)
  let bare = P.request ~workload:"w" ~mode:"m" ~size:"quick" () in
  match P.decode_request (P.encode_request bare) with
  | Ok r' -> check_bool "no deadline survives" true (r'.P.deadline_s = None)
  | Error e -> Alcotest.failf "decode bare: %s" e

let test_response_roundtrip () =
  let cell = Results.Json.Obj [ ("k", Results.Json.Int 1) ] in
  let cases =
    [
      P.Cell { id = 1; warm = true; cell };
      P.Cell { id = 2; warm = false; cell };
      P.Overloaded { id = 3 };
      P.Bad_request { id = 4; reason = "unknown workload \"zork\"" };
      P.Failed { id = 5; reason = "watchdog: cell exceeded 0.1s" };
      P.Deadline { id = 6 };
    ]
  in
  List.iteri
    (fun i r ->
      match P.decode_response (P.encode_response r) with
      | Error e -> Alcotest.failf "case %d: %s" i e
      | Ok r' ->
          check_int "id echoes" (P.response_id r) (P.response_id r');
          check_str "re-encode is byte-identical" (P.encode_response r)
            (P.encode_response r'))
    cases;
  match P.decode_response "{\"status\":\"martian\",\"id\":1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown status should not decode"

(* ------------------------------------------------------------------ *)
(* Live daemon *)

let repro_exe = "../bin/main.exe"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "repro-serve-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let spawn_daemon ?(extra = []) ~socket ~dir () =
  let args =
    [ repro_exe; "serve"; "--socket"; socket; "--cache-dir"; dir ] @ extra
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process repro_exe (Array.of_list args) Unix.stdin Unix.stdout
      null
  in
  Unix.close null;
  pid

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.;
    Ok fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error e

(* A stale socket file survives kill -9, so readiness is
   connectability, never mere existence. *)
let wait_ready socket =
  let rec go n =
    if n > 400 then Alcotest.fail "daemon never became ready";
    match connect socket with
    | Ok fd -> Unix.close fd
    | Error _ ->
        Unix.sleepf 0.025;
        go (n + 1)
  in
  go 0

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> n
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + s
  | exception Unix.Unix_error _ -> -1

let with_daemon ?extra f =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let pid = spawn_daemon ?extra ~socket ~dir () in
  wait_ready socket;
  let exit_code = ref None in
  Fun.protect
    ~finally:(fun () ->
      match !exit_code with Some _ -> () | None -> ignore (stop_daemon pid))
    (fun () ->
      let r = f ~socket ~dir in
      let code = stop_daemon pid in
      exit_code := Some code;
      check_int "daemon drained cleanly on SIGTERM" 0 code;
      r)

let rpc fd req =
  P.write_frame fd (P.encode_request req);
  match P.read_frame fd with
  | Error e -> Alcotest.failf "read_frame: %s" e
  | Ok payload -> (
      match P.decode_response payload with
      | Ok r -> r
      | Error e -> Alcotest.failf "decode_response: %s" e)

let cfrac_req ?id ?seed ?plan ?deadline_s ?(mode = "sun") ?(size = "quick") ()
    =
  P.request ?id ?seed ?plan ?deadline_s ~workload:"cfrac" ~mode ~size ()

let test_cold_then_warm () =
  with_daemon (fun ~socket ~dir:_ ->
      match connect socket with
      | Error e -> Alcotest.failf "connect: %s" (Unix.error_message e)
      | Ok fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          let cell_bytes = function
            | P.Cell { cell; _ } -> Results.Json.to_string ~indent:false cell
            | r ->
                Alcotest.failf "expected a cell, got id %d non-cell"
                  (P.response_id r)
          in
          (match rpc fd (cfrac_req ~id:1 ()) with
          | P.Cell { id; warm; _ } as r ->
              check_int "id echoed" 1 id;
              check_bool "first serving is cold" false warm;
              let first = cell_bytes r in
              (* same identity again, same connection: warm and
                 byte-identical *)
              (match rpc fd (cfrac_req ~id:2 ()) with
              | P.Cell { id; warm; _ } as r2 ->
                  check_int "second id echoed" 2 id;
                  check_bool "second serving is warm" true warm;
                  check_str "warm bytes identical" first (cell_bytes r2)
              | _ -> Alcotest.fail "second request did not yield a cell")
          | _ -> Alcotest.fail "first request did not yield a cell");
          (* a different identity on the same connection is cold *)
          match rpc fd (cfrac_req ~id:3 ~seed:9 ()) with
          | P.Cell { warm; _ } -> check_bool "new seed is cold" false warm
          | _ -> Alcotest.fail "third request did not yield a cell")

let test_malformed_frames_survive () =
  with_daemon (fun ~socket ~dir:_ ->
      (* 1: a well-framed but non-JSON payload — Bad_request, and the
         connection stays usable *)
      (match connect socket with
      | Error e -> Alcotest.failf "connect: %s" (Unix.error_message e)
      | Ok fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          P.write_frame fd "this is not json";
          (match P.read_frame fd with
          | Ok payload -> (
              match P.decode_response payload with
              | Ok (P.Bad_request _) -> ()
              | Ok _ -> Alcotest.fail "garbage JSON should be Bad_request"
              | Error e -> Alcotest.failf "decode: %s" e)
          | Error e -> Alcotest.failf "no reply to garbage JSON: %s" e);
          match rpc fd (cfrac_req ~id:5 ()) with
          | P.Cell _ -> ()
          | _ -> Alcotest.fail "connection unusable after garbage JSON");
      (* 2: an unframeable length prefix — error frame, then close *)
      (match connect socket with
      | Error e -> Alcotest.failf "connect: %s" (Unix.error_message e)
      | Ok fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          ignore (Unix.write_substring fd "\xff\xff\xff\xffgarbage" 0 11);
          (match P.read_frame fd with
          | Ok payload -> (
              match P.decode_response payload with
              | Ok (P.Bad_request _) -> ()
              | _ -> Alcotest.fail "violation should answer Bad_request")
          | Error _ ->
              (* a racing close is acceptable; death is not, checked
                 below *)
              ()));
      (* 3: the daemon is still alive and serving *)
      match connect socket with
      | Error e ->
          Alcotest.failf "daemon died after violations: %s"
            (Unix.error_message e)
      | Ok fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          (match rpc fd (cfrac_req ~id:6 ()) with
          | P.Cell _ -> ()
          | _ -> Alcotest.fail "daemon unusable after violations");
          (* unknown workload/mode, and a cell [repro run] rejects, are
             per-request errors *)
          (match
             rpc fd (P.request ~id:7 ~workload:"zork" ~mode:"sun" ~size:"quick" ())
           with
          | P.Bad_request { id; reason } ->
              check_int "bad-request id echoed" 7 id;
              check_bool "reason names the problem" true (reason <> "")
          | _ -> Alcotest.fail "unknown workload should be Bad_request");
          (match
             rpc fd (P.request ~id:8 ~workload:"cfrac" ~mode:"warp" ~size:"quick" ())
           with
          | P.Bad_request _ -> ()
          | _ -> Alcotest.fail "unknown mode should be Bad_request");
          match
            rpc fd (P.request ~id:9 ~workload:"mudlle" ~mode:"sun" ~size:"quick" ())
          with
          | P.Bad_request { reason; _ } ->
              check_str "reason names the emulated mode"
                "mudlle is region-based: its malloc run is mode emu-sun" reason
          | _ -> Alcotest.fail "a direct mode of mudlle should be Bad_request")

(* --max-queue 0 makes admission control deterministic: every cold
   request bounces with Overloaded, while warm requests (admission-
   free reads) still serve. *)
let test_admission_control () =
  with_daemon ~extra:[ "--max-queue"; "0" ] (fun ~socket ~dir:_ ->
      match connect socket with
      | Error e -> Alcotest.failf "connect: %s" (Unix.error_message e)
      | Ok fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          (match rpc fd (cfrac_req ~id:1 ()) with
          | P.Overloaded { id } -> check_int "overloaded echoes id" 1 id
          | _ -> Alcotest.fail "cold request should bounce at queue cap 0"))

(* One slow full-size cell occupies the single worker; a queued quick
   request with a 100ms deadline must resolve Deadline, not hang. *)
let test_deadline_expiry () =
  with_daemon ~extra:[ "--workers"; "1" ] (fun ~socket ~dir:_ ->
      match connect socket with
      | Error e -> Alcotest.failf "connect: %s" (Unix.error_message e)
      | Ok fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          let slow =
            P.request ~id:1 ~seed:100 ~workload:"moss" ~mode:"sun"
              ~size:"full" ()
          in
          P.write_frame fd (P.encode_request slow);
          let quick = cfrac_req ~id:2 ~seed:101 ~deadline_s:0.1 () in
          P.write_frame fd (P.encode_request quick);
          (* responses arrive in completion order: the deadline first *)
          (match P.read_frame fd with
          | Error e -> Alcotest.failf "read: %s" e
          | Ok p -> (
              match P.decode_response p with
              | Ok (P.Deadline { id }) -> check_int "deadline id" 2 id
              | Ok r ->
                  Alcotest.failf "expected Deadline for id 2, got id %d"
                    (P.response_id r)
              | Error e -> Alcotest.failf "decode: %s" e));
          match P.read_frame fd with
          | Error e -> Alcotest.failf "read slow cell: %s" e
          | Ok p -> (
              match P.decode_response p with
              | Ok (P.Cell { id; _ }) -> check_int "slow cell id" 1 id
              | Ok _ -> Alcotest.fail "slow cell did not complete"
              | Error e -> Alcotest.failf "decode: %s" e))

(* kill -9, wipe the cache but keep the journal, restart: the daemon
   must rebuild the cache from the journal and serve the cell warm. *)
let test_journal_recovery () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let pid = spawn_daemon ~socket ~dir () in
  wait_ready socket;
  let first =
    match connect socket with
    | Error e -> Alcotest.failf "connect: %s" (Unix.error_message e)
    | Ok fd ->
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        (match rpc fd (cfrac_req ~id:1 ()) with
        | P.Cell { warm; cell; _ } ->
            check_bool "cold first" false warm;
            Results.Json.to_string ~indent:false cell
        | _ -> Alcotest.fail "no cell before the kill")
  in
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  (* wipe every cache entry; the journal survives *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".json" then
        Sys.remove (Filename.concat dir name))
    (Sys.readdir dir);
  let pid2 = spawn_daemon ~socket ~dir () in
  wait_ready socket;
  Fun.protect
    ~finally:(fun () -> ignore (stop_daemon pid2))
    (fun () ->
      match connect socket with
      | Error e -> Alcotest.failf "reconnect: %s" (Unix.error_message e)
      | Ok fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          (match rpc fd (cfrac_req ~id:2 ()) with
          | P.Cell { warm; cell; _ } ->
              check_bool "journal-recovered cell is warm" true warm;
              check_str "recovered bytes are identical" first
                (Results.Json.to_string ~indent:false cell)
          | _ -> Alcotest.fail "no cell after restart"))

(* A journal written by a different build must not be replayed into
   the cache: the content-addressed cache's invariant is that a
   rebuild invalidates every entry, and recovery stamping old
   measurements with the new build id would serve stale numbers warm.
   Simulate the rebuild by rewriting the journal's build ids. *)
let test_stale_build_journal_not_replayed () =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let journal = Filename.concat dir "serve.journal" in
  let pid = spawn_daemon ~socket ~dir () in
  wait_ready socket;
  (match connect socket with
  | Error e -> Alcotest.failf "connect: %s" (Unix.error_message e)
  | Ok fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (match rpc fd (cfrac_req ~id:1 ()) with
      | P.Cell { warm; _ } -> check_bool "cold first" false warm
      | _ -> Alcotest.fail "no cell before the kill"));
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  (* wipe the cache, as after a rebuild with a fresh cache dir … *)
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".json" then
        Sys.remove (Filename.concat dir name))
    (Sys.readdir dir);
  (* … and re-stamp every journal line as another build's *)
  let entries, torn = Harness.Journal.load_keyed journal in
  check_bool "the kill left journaled cells" true (entries <> []);
  check_int "no torn lines in this controlled kill" 0 torn;
  let oc =
    open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644
      journal
  in
  List.iter
    (fun (e : Harness.Journal.keyed) ->
      Harness.Journal.append_keyed oc
        { e with Harness.Journal.k_build = "stale-build" })
    entries;
  close_out oc;
  let pid2 = spawn_daemon ~socket ~dir () in
  wait_ready socket;
  Fun.protect
    ~finally:(fun () -> ignore (stop_daemon pid2))
    (fun () ->
      (match connect socket with
      | Error e -> Alcotest.failf "reconnect: %s" (Unix.error_message e)
      | Ok fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          (match rpc fd (cfrac_req ~id:2 ()) with
          | P.Cell { warm; _ } ->
              check_bool "stale-build journal must not serve warm" false warm
          | _ -> Alcotest.fail "no cell after restart"));
      (* recovery purged the stale lines instead of re-parsing them
         forever: everything left in the journal is this build's *)
      let entries, _ = Harness.Journal.load_keyed journal in
      check_bool "stale lines purged" true
        (List.for_all
           (fun (e : Harness.Journal.keyed) ->
             e.Harness.Journal.k_build <> "stale-build")
           entries))

(* The lockfiles only guard the store; the socket itself must not be
   stolen by a daemon configured with a different --cache-dir.  The
   second daemon probes the socket, finds it answering, and refuses. *)
let test_live_socket_not_stolen () =
  with_daemon (fun ~socket ~dir:_ ->
      let dir2 = fresh_dir () in
      let pid2 = spawn_daemon ~socket ~dir:dir2 () in
      (match Unix.waitpid [] pid2 with
      | _, Unix.WEXITED code ->
          check_int "second daemon refuses to start" 2 code
      | _ -> Alcotest.fail "second daemon did not exit normally");
      (* the first daemon's socket is intact and still serving *)
      match connect socket with
      | Error e ->
          Alcotest.failf "original daemon lost its socket: %s"
            (Unix.error_message e)
      | Ok fd ->
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          (match rpc fd (cfrac_req ~id:9 ()) with
          | P.Cell _ -> ()
          | _ -> Alcotest.fail "original daemon unusable after the probe"))

(* ------------------------------------------------------------------ *)
(* Chaos property: kill at a random instant, byte-identical cells *)

let chaos_mix seed =
  [
    P.request ~seed ~workload:"cfrac" ~mode:"sun" ~size:"quick" ();
    P.request ~seed ~workload:"cfrac" ~mode:"gc" ~size:"quick" ();
    P.request ~seed ~workload:"cfrac" ~mode:"region" ~size:"quick" ();
    P.request ~seed ~plan:"budget=64,ramp=0:0.002" ~workload:"cfrac"
      ~mode:"region" ~size:"quick" ();
  ]

let load_config ~kills ~chaos dir =
  let socket = Filename.concat dir "s.sock" in
  {
    Serve.Load.socket;
    spawn = (fun () -> spawn_daemon ~socket ~dir ());
    concurrency = 8;
    requests = 120;
    duration_s = 0.;
    seed = 42;
    chaos;
    kills;
    request_budget_s = 60.;
    deadline_s = None;
    mix = chaos_mix 42;
    log = ignore;
  }

(* One uninterrupted, chaos-free run: the reference cell bytes every
   interrupted run must reproduce. *)
let baseline_cells =
  lazy
    (let dir = fresh_dir () in
     let r =
       Serve.Load.run
         (load_config ~kills:[]
            ~chaos:{ Serve.Load.p_garbage = 0.; p_disconnect = 0. }
            dir)
     in
     check_int "baseline has no hung clients" 0 r.Serve.Load.unresolved;
     check_int "baseline daemon exits 0" 0 r.Serve.Load.daemon_exit;
     check_bool "baseline served cells" true (r.Serve.Load.cells <> []);
     r.Serve.Load.cells)

let scan_cache_corruption dir =
  Array.fold_left
    (fun acc name ->
      let has_tmp =
        let rec go i =
          i + 4 <= String.length name
          && (String.sub name i 4 = ".tmp" || go (i + 1))
        in
        go 0
      in
      if (not (Filename.check_suffix name ".json")) || has_tmp then acc
      else
        let path = Filename.concat dir name in
        let text =
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Results.Cell.of_string text with
        | Ok _ -> acc
        | Error e -> (name, e) :: acc)
    [] (Sys.readdir dir)

let chaos_trial kill_at =
  let baseline = Lazy.force baseline_cells in
  let dir = fresh_dir () in
  let r =
    Serve.Load.run
      (load_config ~kills:[ kill_at ]
         ~chaos:{ Serve.Load.p_garbage = 0.05; p_disconnect = 0.05 }
         dir)
  in
  check_int "no hung clients" 0 r.Serve.Load.unresolved;
  check_int "no divergent serves within the run" 0 r.Serve.Load.divergent;
  check_int "daemon drains cleanly at the end" 0 r.Serve.Load.daemon_exit;
  check_bool "the interrupted run served cells" true
    (r.Serve.Load.cells <> []);
  (* byte-identity against the uninterrupted reference, key by key *)
  List.iter
    (fun (key, bytes) ->
      match List.assoc_opt key baseline with
      | None -> Alcotest.failf "key %s not served by the baseline" key
      | Some expected ->
          check_str (Printf.sprintf "cell %s byte-identical" key) expected
            bytes)
    r.Serve.Load.cells;
  (* and the kill left nothing torn in the store *)
  match scan_cache_corruption dir with
  | [] -> ()
  | (name, e) :: _ -> Alcotest.failf "corrupt cache entry %s: %s" name e

let test_chaos_fixed_kill () = chaos_trial 0.12

let test_chaos_random_kill =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3
       ~name:"kill -9 at a random instant; restart serves identical bytes"
       (QCheck.make
          ~print:(Printf.sprintf "%.3f")
          QCheck.Gen.(float_range 0.02 0.45))
       (fun kill_at ->
         chaos_trial kill_at;
         true))

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          tc "frame reassembly, byte at a time" `Quick test_frame_roundtrip;
          tc "frame violations rejected" `Quick test_frame_violations;
          tc "request codec + dedupe key" `Quick test_request_roundtrip;
          tc "response codec, all variants" `Quick test_response_roundtrip;
        ] );
      ( "daemon",
        [
          tc "cold then warm, byte-identical" `Slow test_cold_then_warm;
          tc "malformed frames never kill it" `Slow
            test_malformed_frames_survive;
          tc "admission control bounces cold work" `Slow
            test_admission_control;
          tc "queued request deadline expires" `Slow test_deadline_expiry;
          tc "journal recovery after kill -9" `Slow test_journal_recovery;
          tc "stale-build journal never replayed" `Slow
            test_stale_build_journal_not_replayed;
          tc "live socket not stolen by a second daemon" `Slow
            test_live_socket_not_stolen;
        ] );
      ( "chaos",
        [
          tc "fixed kill point" `Slow test_chaos_fixed_kill;
          test_chaos_random_kill;
        ] );
    ]
