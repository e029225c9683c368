module J = Results.Json

type config = {
  socket : string;
  cache_dir : string;
  journal : string;
  workers : int;
  max_clients : int;
  max_queue : int;
  cell_timeout_s : float option;
  retries : int;
  backoff_s : float;
  write_timeout_s : float;
  cache_max_mb : int option;
  drain_timeout_s : float;
  metrics_out : string option;
  log : string -> unit;
}

let default_config ~socket ~cache_dir ~journal =
  {
    socket;
    cache_dir;
    journal;
    workers = 4;
    max_clients = 512;
    max_queue = 256;
    cell_timeout_s = Some 60.;
    retries = 1;
    backoff_s = 0.05;
    write_timeout_s = 10.;
    cache_max_mb = None;
    drain_timeout_s = 30.;
    metrics_out = None;
    log = ignore;
  }

(* ---- metrics ------------------------------------------------------ *)

let reg = Obs.Metrics.default
let m_conns = Obs.Metrics.counter reg "serve_connections_total"
let m_requests = Obs.Metrics.counter reg "serve_requests_total"
let m_overloaded = Obs.Metrics.counter reg "serve_overloaded_total"
let m_deduped = Obs.Metrics.counter reg "serve_deduped_total"
let m_warm = Obs.Metrics.counter reg "serve_warm_hits_total"
let m_cold = Obs.Metrics.counter reg "serve_cold_cells_total"
let m_failures = Obs.Metrics.counter reg "serve_cell_failures_total"
let m_malformed = Obs.Metrics.counter reg "serve_malformed_total"
let m_deadline = Obs.Metrics.counter reg "serve_deadline_expired_total"
let m_slow = Obs.Metrics.counter reg "serve_slow_clients_total"
let m_recovered = Obs.Metrics.counter reg "serve_recovered_cells_total"
let m_stale = Obs.Metrics.counter reg "serve_stale_journal_entries_total"
let m_wait_ms = Obs.Metrics.histogram reg "serve_wait_ms"
let m_warm_us = Obs.Metrics.histogram reg "serve_warm_us"

(* ---- shared state ------------------------------------------------- *)

type outcome = Done of J.t | Fail of string

type job = {
  j_key : string;
  j_spec : Workloads.Workload.spec;
  j_mode : Workloads.Api.mode;
  j_size : Workloads.Workload.size;
  j_seed : int;
  j_plan : (Fault.Plan.t * string) option;
  j_plan_str : string;
  j_size_str : string;
  j_enqueued : float;
  (* (client uid, request id, absolute deadline).  Mutated by the
     event loop (dedupe adds, deadline scan removes) and read by the
     worker picking the job up — both under [mu]. *)
  mutable j_waiters : (int * int * float option) list;
}

type client = {
  c_uid : int;
  c_fd : Unix.file_descr;
  c_dec : Protocol.decoder;
  c_out : Buffer.t;
  mutable c_sent : int;
  mutable c_close : bool;  (* close once the out buffer drains *)
  mutable c_progress : float;  (* last enqueue or successful write *)
}

type state = {
  cfg : config;
  disk : Results.Cache.t;
  build_id : string;
  stop : bool Atomic.t;
  (* absolute drain deadline (infinity until SIGTERM): past it, cold
     attempts are abandoned instead of awaited *)
  kill_after : float Atomic.t;
  mu : Mutex.t;
  cv : Condition.t;
  queue : job Queue.t;
  jobs : (string, job) Hashtbl.t;
  mutable completions : (job * outcome) list;
  jmu : Mutex.t;  (* journal appends *)
  journal_oc : out_channel;
  wake_w : Unix.file_descr;  (* worker -> event loop self-pipe *)
}

let wake st = try ignore (Unix.write_substring st.wake_w "x" 0 1) with _ -> ()

(* ---- request validation ------------------------------------------- *)

let validate (r : Protocol.request) =
  let ( let* ) = Result.bind in
  let* spec =
    match Workloads.Workload.find r.workload with
    | s -> Ok s
    | exception Invalid_argument m -> Error m
  in
  let* mode =
    match
      List.find_opt
        (fun m -> Workloads.Api.mode_name m = r.mode)
        Workloads.Api.all_modes
    with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown mode %s" r.mode)
  in
  let* size =
    match r.size with
    | "quick" -> Ok Workloads.Workload.Quick
    | "full" -> Ok Workloads.Workload.Full
    | s -> Error (Printf.sprintf "unknown size %s (quick|full)" s)
  in
  let* plan =
    if r.plan = "none" then Ok None
    else
      match Fault.Plan.of_string ~seed:r.seed r.plan with
      | Ok p -> Ok (Some (p, r.plan))
      | Error e -> Error (Printf.sprintf "bad plan %s: %s" r.plan e)
  in
  Ok (spec, mode, size, plan)

(* ---- worker ------------------------------------------------------- *)

(* One cold cell, under the batch harness's exact supervision:
   watchdogged attempt (the request deadline caps the watchdog),
   transient-only retries with exponential backoff, abandoned-attempt
   fds reclaimed by the attempt guard.  The cache store happens inside
   [run_cell_collect]; the journal line is appended here, after the
   attempt — never inside the watchdogged body, so an abandoned domain
   can never wedge the journal mutex. *)
let run_job st (job : job) =
  let deadline =
    Mutex.lock st.mu;
    (* A waiter with {e no} deadline dominates: capping the job by some
       other waiter's deadline would let the watchdog kill the attempt
       while the unbounded waiter still wants its result.  Only when
       every waiter carries a deadline is the job bounded — by the
       latest of them. *)
    let d =
      match job.j_waiters with
      | [] -> None
      | (_, _, d0) :: rest ->
          List.fold_left
            (fun acc (_, _, dl) ->
              match (acc, dl) with
              | None, _ | _, None -> None
              | Some a, Some b -> Some (Float.max a b))
            d0 rest
    in
    Mutex.unlock st.mu;
    d
  in
  (* Past the drain deadline the daemon stops waiting: the attempt is
     abandoned through the watchdog path instead of holding shutdown's
     [Domain.join] hostage for up to a full cell timeout. *)
  let cancelled () = Unix.gettimeofday () > Atomic.get st.kill_after in
  let timeout_s =
    let budget =
      Option.map (fun d -> Float.max 0.05 (d -. Unix.gettimeofday ())) deadline
    in
    match (st.cfg.cell_timeout_s, budget) with
    | None, b -> b
    | t, None -> t
    | Some t, Some b -> Some (Float.min t b)
  in
  let m =
    Harness.Matrix.create ~disk:st.disk ~seed:job.j_seed ?plan:job.j_plan
      job.j_size
  in
  let rec attempt k =
    match
      Harness.Matrix.run_attempt ?timeout_s ~cancelled (fun guard ->
          Harness.Matrix.run_cell_collect ~guard m job.j_spec job.j_mode)
    with
    | r -> Ok r
    | exception e
      when k < st.cfg.retries
           && Harness.Matrix.transient e
           && not (cancelled ()) ->
        if st.cfg.backoff_s > 0. then
          Unix.sleepf (st.cfg.backoff_s *. (2. ** float_of_int k));
        attempt (k + 1)
    | exception e -> Error (Printexc.to_string e)
  in
  match attempt 0 with
  | Error reason ->
      Obs.Metrics.inc m_failures;
      Fail reason
  | Ok r ->
      (* Durability order: the cache entry (atomic rename) landed
         inside the attempt; the journal line commits the request key.
         A crash between the two leaves a cache entry without a journal
         line — still correct, the restart serves it warm. *)
      Mutex.lock st.jmu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock st.jmu)
        (fun () ->
          Harness.Journal.append_keyed st.journal_oc
            {
              Harness.Journal.k_build = st.build_id;
              k_workload = job.j_spec.Workloads.Workload.name;
              k_mode = Workloads.Api.mode_name job.j_mode;
              k_size = job.j_size_str;
              k_seed = job.j_seed;
              k_plan = job.j_plan_str;
              k_result = r;
            });
      let cell =
        Results.Cell.make ~size:job.j_size_str ~build_id:st.build_id
          ~seed:job.j_seed ~plan:job.j_plan_str r
      in
      Done (Results.Cell.to_json cell)

let worker st () =
  let rec loop () =
    Mutex.lock st.mu;
    while Queue.is_empty st.queue && not (Atomic.get st.stop) do
      Condition.wait st.cv st.mu
    done;
    if Queue.is_empty st.queue then Mutex.unlock st.mu
      (* stopping, queue drained *)
    else begin
      let job = Queue.pop st.queue in
      Mutex.unlock st.mu;
      let outcome =
        (* Queued-but-unstarted work past the drain deadline fails
           cheaply here; only attempts already in flight pay the
           watchdog-abandon path. *)
        if Unix.gettimeofday () > Atomic.get st.kill_after then begin
          Obs.Metrics.inc m_failures;
          Fail "daemon draining: job abandoned at the drain deadline"
        end
        else
          try run_job st job
          with e ->
            Obs.Metrics.inc m_failures;
            Fail (Printexc.to_string e)
      in
      Mutex.lock st.mu;
      st.completions <- (job, outcome) :: st.completions;
      Mutex.unlock st.mu;
      wake st;
      loop ()
    end
  in
  loop ()

(* ---- event loop --------------------------------------------------- *)

let run cfg =
  (* The counters are part of the daemon's contract (the soak job
     uploads the snapshot), so the registry is always on here. *)
  Obs.Metrics.set_enabled reg true;
  (* Exclusion first: a daemon and a concurrent [repro experiment] on
     the same store would interleave whole runs; fail fast, by name. *)
  let ( let* ) = Result.bind in
  let* cache_lock =
    Results.Lockfile.acquire ~owner:"repro-serve"
      (Filename.concat cfg.cache_dir "LOCK")
  in
  let* journal_lock =
    match
      Results.Lockfile.acquire ~owner:"repro-serve" (cfg.journal ^ ".lock")
    with
    | Ok l -> Ok l
    | Error e ->
        Results.Lockfile.release cache_lock;
        Error e
  in
  let release_locks () =
    Results.Lockfile.release cache_lock;
    Results.Lockfile.release journal_lock
  in
  let disk = Results.Cache.create ~dir:cfg.cache_dir () in
  let build_id = Results.Cache.build_id disk in
  (* Crash recovery: every journaled cell whose cache entry is missing
     (killed between rename and fsync, or a swept entry) is re-stored,
     so the cache and journal agree before the first client connects.
     Only lines written by {e this} binary replay — re-storing another
     build's measurements would defeat the cache invariant that a
     rebuild invalidates every entry, serving stale numbers as warm
     hits.  Stale-build and damaged lines are purged (atomic rewrite)
     so they are not re-parsed on every restart. *)
  let recovered, stale, torn =
    let entries, torn = Harness.Journal.load_keyed cfg.journal in
    let live, stale_entries =
      List.partition
        (fun (e : Harness.Journal.keyed) -> e.k_build = build_id)
        entries
    in
    let n = ref 0 in
    List.iter
      (fun (e : Harness.Journal.keyed) ->
        match
          Results.Cache.find disk ~workload:e.k_workload ~mode:e.k_mode
            ~size:e.k_size ~seed:e.k_seed ~plan:e.k_plan
        with
        | Some _ -> ()
        | None ->
            Results.Cache.store disk
              (Results.Cell.make ~size:e.k_size ~build_id ~seed:e.k_seed
                 ~plan:e.k_plan e.k_result);
            incr n;
            Obs.Metrics.inc m_recovered)
      live;
    List.iter (fun _ -> Obs.Metrics.inc m_stale) stale_entries;
    if (stale_entries <> [] || torn > 0) && Sys.file_exists cfg.journal then begin
      (* tmp + fsync + rename: a crash mid-purge leaves either journal
         whole, and the appender below opens the renamed file *)
      let tmp = Printf.sprintf "%s.tmp.%d" cfg.journal (Unix.getpid ()) in
      match open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 tmp with
      | exception Sys_error _ -> ()  (* unpurgeable journal is a soft failure *)
      | oc ->
          List.iter
            (fun e ->
              output_string oc (Harness.Journal.line_of_keyed e);
              output_char oc '\n')
            live;
          flush oc;
          (try Unix.fsync (Unix.descr_of_out_channel oc)
           with Unix.Unix_error _ -> ());
          close_out_noerr oc;
          (try Sys.rename tmp cfg.journal with Sys_error _ -> ())
    end;
    (!n, List.length stale_entries, torn)
  in
  if recovered > 0 || stale > 0 || torn > 0 then
    cfg.log
      (Printf.sprintf
         "journal recovery: %d cells re-stored, %d stale-build entries \
          purged, %d torn lines"
         recovered stale torn);
  let sweep () =
    match cfg.cache_max_mb with
    | None -> ()
    | Some mb ->
        let n = Results.Cache.sweep disk ~max_bytes:(mb * 1024 * 1024) in
        if n > 0 then cfg.log (Printf.sprintf "cache sweep: evicted %d" n)
  in
  sweep ();
  (* A stale socket file survives kill -9 and must be unlinked before
     bind — but a {e live} one must not be: the lockfiles only cover
     the cache dir and journal, so a second daemon on a different
     --cache-dir but the same socket path would otherwise silently
     steal a running daemon's traffic.  Liveness is connectability:
     an answering socket means refuse to start; connection refused
     means a stale file, safe to remove. *)
  let* () =
    if not (Sys.file_exists cfg.socket) then Ok ()
    else
      let alive =
        match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
        | exception Unix.Unix_error _ -> true  (* cannot probe: never steal *)
        | probe ->
            Fun.protect
              ~finally:(fun () ->
                try Unix.close probe with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.set_nonblock probe;
                match Unix.connect probe (Unix.ADDR_UNIX cfg.socket) with
                | () -> true
                | exception
                    Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
                  -> false
                | exception Unix.Unix_error _ ->
                    (* EAGAIN (backlog full), EACCES, ...: someone may
                       well be listening — refuse rather than steal. *)
                    true)
      in
      if alive then begin
        release_locks ();
        Error
          (Printf.sprintf "another daemon is listening on %s; refusing to \
                           replace its socket"
             cfg.socket)
      end
      else begin
        (try Sys.remove cfg.socket with Sys_error _ -> ());
        Ok ()
      end
  in
  let* lfd =
    match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
    | fd -> (
        match
          Unix.bind fd (Unix.ADDR_UNIX cfg.socket);
          Unix.listen fd 128;
          Unix.set_nonblock fd
        with
        | () -> Ok fd
        | exception Unix.Unix_error (e, _, _) ->
            Unix.close fd;
            release_locks ();
            Error
              (Printf.sprintf "cannot bind %s: %s" cfg.socket
                 (Unix.error_message e)))
    | exception Unix.Unix_error (e, _, _) ->
        release_locks ();
        Error (Printf.sprintf "cannot create socket: %s" (Unix.error_message e))
  in
  (* The journal open rides the same cleanup contract as the socket:
     a failure here must release the locks and unlink the socket, not
     escape [run] as an exception with the listener fd leaked. *)
  let* journal_oc =
    match
      Harness.Tracefiles.mkdir_p (Filename.dirname cfg.journal);
      open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 cfg.journal
    with
    | oc -> Ok oc
    | exception ((Sys_error _ | Unix.Unix_error _) as e) ->
        (try Unix.close lfd with Unix.Unix_error _ -> ());
        (try Sys.remove cfg.socket with Sys_error _ -> ());
        release_locks ();
        Error
          (Printf.sprintf "cannot open journal %s: %s" cfg.journal
             (Printexc.to_string e))
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let st =
    {
      cfg;
      disk;
      build_id;
      stop = Atomic.make false;
      kill_after = Atomic.make infinity;
      mu = Mutex.create ();
      cv = Condition.create ();
      queue = Queue.create ();
      jobs = Hashtbl.create 64;
      completions = [];
      jmu = Mutex.create ();
      journal_oc;
      wake_w;
    }
  in
  let prev_term =
    Sys.signal Sys.sigterm
      (Sys.Signal_handle (fun _ -> Atomic.set st.stop true))
  in
  let prev_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set st.stop true))
  in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let workers =
    Array.init (max 1 cfg.workers) (fun _ -> Domain.spawn (worker st))
  in
  cfg.log
    (Printf.sprintf "serving on %s (%d workers, cache %s)" cfg.socket
       (Array.length workers) cfg.cache_dir);

  (* -- per-connection bookkeeping -- *)
  let clients : (int, client) Hashtbl.t = Hashtbl.create 64 in
  let by_fd : (Unix.file_descr, int) Hashtbl.t = Hashtbl.create 64 in
  let next_uid = ref 0 in
  let rbuf = Bytes.create 65536 in
  let drop c =
    Hashtbl.remove clients c.c_uid;
    Hashtbl.remove by_fd c.c_fd;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  in
  let enqueue c resp =
    Buffer.add_string c.c_out
      (Protocol.encode_frame (Protocol.encode_response resp));
    c.c_progress <- Unix.gettimeofday ()
  in
  let respond uid resp =
    match Hashtbl.find_opt clients uid with
    | Some c when not c.c_close -> enqueue c resp
    | _ -> ()
  in
  let pre_overloaded =
    Protocol.encode_frame
      (Protocol.encode_response (Protocol.Overloaded { id = 0 }))
  in
  let completions_since_sweep = ref 0 in

  let handle_request c (req : Protocol.request) =
    Obs.Metrics.inc m_requests;
    match validate req with
    | Error reason ->
        enqueue c (Protocol.Bad_request { id = req.id; reason })
    | Ok (spec, mode, size, plan) -> (
        let size_str =
          match size with Workloads.Workload.Quick -> "quick" | Full -> "full"
        in
        let t0 = Unix.gettimeofday () in
        match
          Results.Cache.find disk ~workload:req.workload ~mode:req.mode
            ~size:size_str ~seed:req.seed ~plan:req.plan
        with
        | Some cell ->
            Obs.Metrics.inc m_warm;
            Obs.Metrics.observe m_warm_us
              (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
            enqueue c
              (Protocol.Cell
                 { id = req.id; warm = true; cell = Results.Cell.to_json cell })
        | None ->
            let key = Protocol.key_of_request req in
            let deadline = Option.map (fun d -> t0 +. d) req.deadline_s in
            let waiter = (c.c_uid, req.id, deadline) in
            Mutex.lock st.mu;
            let verdict =
              match Hashtbl.find_opt st.jobs key with
              | Some job ->
                  job.j_waiters <- waiter :: job.j_waiters;
                  `Deduped
              | None ->
                  if
                    Atomic.get st.stop
                    || Hashtbl.length st.jobs >= cfg.max_queue
                  then `Overloaded
                  else begin
                    let job =
                      {
                        j_key = key;
                        j_spec = spec;
                        j_mode = mode;
                        j_size = size;
                        j_seed = req.seed;
                        j_plan = plan;
                        j_plan_str = req.plan;
                        j_size_str = size_str;
                        j_enqueued = t0;
                        j_waiters = [ waiter ];
                      }
                    in
                    Hashtbl.replace st.jobs key job;
                    Queue.push job st.queue;
                    Condition.signal st.cv;
                    `Scheduled
                  end
            in
            Mutex.unlock st.mu;
            (match verdict with
            | `Deduped -> Obs.Metrics.inc m_deduped
            | `Scheduled -> Obs.Metrics.inc m_cold
            | `Overloaded ->
                Obs.Metrics.inc m_overloaded;
                enqueue c (Protocol.Overloaded { id = req.id })))
  in
  let rec drain_frames c =
    match Protocol.next c.c_dec with
    | Error reason ->
        (* Unframeable stream: answer once, then hang up. *)
        Obs.Metrics.inc m_malformed;
        enqueue c (Protocol.Bad_request { id = 0; reason });
        c.c_close <- true
    | Ok None -> ()
    | Ok (Some payload) ->
        (match Protocol.decode_request payload with
        | Error reason ->
            Obs.Metrics.inc m_malformed;
            enqueue c (Protocol.Bad_request { id = 0; reason })
        | Ok req -> handle_request c req);
        if not c.c_close then drain_frames c
  in
  let read_client c =
    match Unix.read c.c_fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> drop c
    | n ->
        Protocol.feed c.c_dec (Bytes.sub_string rbuf 0 n);
        drain_frames c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> drop c
  in
  let flush_client c =
    let pending = Buffer.length c.c_out - c.c_sent in
    if pending > 0 then begin
      match
        Unix.write_substring c.c_fd (Buffer.contents c.c_out) c.c_sent pending
      with
      | n ->
          c.c_sent <- c.c_sent + n;
          c.c_progress <- Unix.gettimeofday ();
          if c.c_sent >= Buffer.length c.c_out then begin
            Buffer.clear c.c_out;
            c.c_sent <- 0;
            if c.c_close then drop c
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error _ -> drop c
    end
    else if c.c_close then drop c
  in
  let accept_clients () =
    let rec go () =
      match Unix.accept ~cloexec:true lfd with
      | cfd, _ ->
          Unix.set_nonblock cfd;
          Obs.Metrics.inc m_conns;
          if Hashtbl.length clients >= cfg.max_clients then begin
            (* Admission control at the door: one best-effort
               Overloaded frame (the fresh socket buffer takes it
               whole or not at all), then close. *)
            Obs.Metrics.inc m_overloaded;
            (try
               ignore
                 (Unix.write_substring cfd pre_overloaded 0
                    (String.length pre_overloaded))
             with Unix.Unix_error _ -> ());
            (try Unix.close cfd with Unix.Unix_error _ -> ())
          end
          else begin
            let uid = !next_uid in
            incr next_uid;
            Hashtbl.replace clients uid
              {
                c_uid = uid;
                c_fd = cfd;
                c_dec = Protocol.decoder ();
                c_out = Buffer.create 512;
                c_sent = 0;
                c_close = false;
                c_progress = Unix.gettimeofday ();
              };
            Hashtbl.replace by_fd cfd uid
          end;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  let process_completions () =
    Mutex.lock st.mu;
    let done_ = st.completions in
    st.completions <- [];
    List.iter (fun (job, _) -> Hashtbl.remove st.jobs job.j_key) done_;
    Mutex.unlock st.mu;
    let now = Unix.gettimeofday () in
    List.iter
      (fun (job, outcome) ->
        Obs.Metrics.observe m_wait_ms
          (int_of_float ((now -. job.j_enqueued) *. 1000.));
        incr completions_since_sweep;
        List.iter
          (fun (uid, id, _) ->
            respond uid
              (match outcome with
              | Done cell -> Protocol.Cell { id; warm = false; cell }
              | Fail reason -> Protocol.Failed { id; reason }))
          job.j_waiters)
      done_;
    if !completions_since_sweep >= 32 then begin
      completions_since_sweep := 0;
      sweep ()
    end
  in
  let scan_deadlines now =
    Mutex.lock st.mu;
    let expired = ref [] in
    Hashtbl.iter
      (fun _ job ->
        let live, dead =
          List.partition
            (fun (_, _, dl) ->
              match dl with None -> true | Some d -> d > now)
            job.j_waiters
        in
        if dead <> [] then begin
          job.j_waiters <- live;
          expired := dead @ !expired
        end)
      st.jobs;
    Mutex.unlock st.mu;
    List.iter
      (fun (uid, id, _) ->
        Obs.Metrics.inc m_deadline;
        respond uid (Protocol.Deadline { id }))
      !expired
  in
  let scan_slow_clients now =
    let victims =
      Hashtbl.fold
        (fun _ c acc ->
          if
            Buffer.length c.c_out - c.c_sent > 0
            && now -. c.c_progress > cfg.write_timeout_s
          then c :: acc
          else acc)
        clients []
    in
    List.iter
      (fun c ->
        Obs.Metrics.inc m_slow;
        drop c)
      victims
  in

  (* -- main loop -- *)
  let draining = ref false in
  let drain_deadline = ref infinity in
  let running = ref true in
  while !running do
    let now = Unix.gettimeofday () in
    if Atomic.get st.stop && not !draining then begin
      draining := true;
      drain_deadline := now +. cfg.drain_timeout_s;
      (* Workers abandon whatever is still in flight once this passes,
         so the drain really is bounded by [drain_timeout_s] (plus the
         watchdog's ~20ms poll), not by a full cell timeout. *)
      Atomic.set st.kill_after !drain_deadline;
      cfg.log "drain: stopping accepts, finishing in-flight cells";
      Mutex.lock st.mu;
      Condition.broadcast st.cv;
      Mutex.unlock st.mu
    end;
    if !draining then begin
      let jobs_left =
        Mutex.lock st.mu;
        let n = Hashtbl.length st.jobs in
        Mutex.unlock st.mu;
        n
      in
      let unflushed =
        Hashtbl.fold
          (fun _ c acc -> acc + (Buffer.length c.c_out - c.c_sent))
          clients 0
      in
      if (jobs_left = 0 && unflushed = 0) || now > !drain_deadline then
        running := false
    end;
    if !running then begin
      let reads =
        wake_r :: (if !draining then [] else [ lfd ])
        @ Hashtbl.fold (fun fd _ acc -> fd :: acc) by_fd []
      in
      let writes =
        Hashtbl.fold
          (fun _ c acc ->
            if Buffer.length c.c_out - c.c_sent > 0 then c.c_fd :: acc
            else acc)
          clients []
      in
      match Unix.select reads writes [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          if List.mem wake_r readable then begin
            let b = Bytes.create 256 in
            let rec drain_pipe () =
              match Unix.read wake_r b 0 256 with
              | 256 -> drain_pipe ()
              | _ -> ()
              | exception Unix.Unix_error _ -> ()
            in
            drain_pipe ()
          end;
          process_completions ();
          List.iter
            (fun fd ->
              match Hashtbl.find_opt by_fd fd with
              | Some uid -> (
                  match Hashtbl.find_opt clients uid with
                  | Some c -> flush_client c
                  | None -> ())
              | None -> ())
            writable;
          if (not !draining) && List.mem lfd readable then accept_clients ();
          List.iter
            (fun fd ->
              if fd <> wake_r && fd <> lfd then
                match Hashtbl.find_opt by_fd fd with
                | Some uid -> (
                    match Hashtbl.find_opt clients uid with
                    | Some c -> read_client c
                    | None -> ())
                | None -> ())
            readable;
          let now = Unix.gettimeofday () in
          scan_deadlines now;
          scan_slow_clients now
    end
  done;

  (* -- shutdown -- *)
  process_completions ();
  Mutex.lock st.mu;
  Condition.broadcast st.cv;
  Mutex.unlock st.mu;
  Array.iter Domain.join workers;
  process_completions ();
  Hashtbl.iter
    (fun _ c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
    clients;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (try Sys.remove cfg.socket with Sys_error _ -> ());
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  close_out_noerr journal_oc;
  (match cfg.metrics_out with
  | None -> ()
  | Some path -> (
      try
        let oc = open_out path in
        output_string oc
          (J.to_string ~indent:true
             (Results.Json.metrics_json (Obs.Metrics.snapshot reg)));
        close_out oc
      with Sys_error _ -> ()));
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  Sys.set_signal Sys.sigpipe prev_pipe;
  release_locks ();
  cfg.log "drained; bye";
  Ok ()
