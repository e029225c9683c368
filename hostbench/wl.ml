(* What a workload hands the run loop in Main, and the helpers the
   workloads share. *)

type ctx = {
  seed : int;
  smoke : bool;  (* a few cells and small inputs: shape checks only *)
  work_dir : string;  (* working files inside the checkout, removed at exit *)
}

(* An individually timed operation of a pass: [seconds] of work done
   within [start, stop] on the monotonic clock, the interval whose host
   speed it is scaled by. *)
type op = { name : string; seconds : float; start : float; stop : float }

(* One pass: the unit of work the timed phase repeats.  [start, stop]
   is its user-visible part, checks excluded. *)
type pass = {
  start : float;
  stop : float;
  ops : op list;
  work : int;  (* units of work done, the denominator of ns_per_op *)
  attempted : int;  (* outputs checked *)
  failed : int;  (* outputs that disagreed with the reference *)
}

(* What the ablations of a traced run attribute beyond the spans:
   [moves] re-assign measured seconds from one layer's self time to
   another's (a cache-off re-run tells how much of a cell was the cache
   model); [counts] are per-layer counters. *)
type layers = {
  moves : (string * string * float) list;  (* from layer, to layer, seconds *)
  counts : (string * float) list;
}

type instance = {
  pass : Span.t -> pass;
  layers : Span.t -> passes:int -> layers;
      (* after the [passes] traced passes, whose spans [Span.t] holds *)
  rss_kb : unit -> int;  (* peak resident set of the serving process *)
  teardown : unit -> unit;
}

type t = {
  name : string;
  setup_reps : int;  (* set-ups an untraced run times; setup_s is their median *)
  prepare : ctx -> unit -> instance;
      (* [prepare ctx] does the run's untimed one-off work and returns
         the set-up, which is timed *)
}

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

(* Host-speed probes (Calib) run between operations; any that fall
   inside an interval are not part of its time. *)
let op name ~start ~stop =
  { name; seconds = stop -. start -. Calib.spent ~start ~stop; start; stop }

(* Whatever part of the pass its timed operations do not cover (the
   render after a fill, matrix bookkeeping) is one more operation,
   "other". *)
let pass ?ops ~start ~stop ~work ~attempted ~failed () =
  let ops =
    match ops with
    | None -> [ op "pass" ~start ~stop ]
    | Some ops ->
        let rest =
          stop -. start -. Calib.spent ~start ~stop -. sum (fun o -> o.seconds) ops
        in
        if rest > 0. then ops @ [ { name = "other"; seconds = rest; start; stop } ]
        else ops
  in
  { start; stop; ops; work; attempted; failed }

let timed f =
  let t0 = Span.now () in
  let v = f () in
  (v, Span.now () -. t0)

(* [f ()] with the interval it ran in. *)
let interval f =
  let start = Span.now () in
  let v = f () in
  (v, start, Span.now ())

(* Paper columns: emu-X is the X column of a region-only workload. *)
let column mode =
  let p = "emu-" in
  let n = String.length p in
  if String.length mode > n && String.sub mode 0 n = p then
    String.sub mode n (String.length mode - n)
  else mode

let sim_counts (results : Workloads.Results.t list) =
  let total f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 results) in
  let allocs = total (fun r -> r.Workloads.Results.req_allocs) in
  let alloc_instrs = total (fun r -> r.Workloads.Results.alloc_instrs) in
  [
    ( "sim.instrs",
      total (fun r ->
          r.Workloads.Results.base_instrs + Workloads.Results.memory_instrs r) );
    ("sim.cycles", total (fun r -> r.Workloads.Results.cycles));
    ("sim.allocs", allocs);
    ("sim.alloc_instrs_per_alloc", if allocs > 0. then alloc_instrs /. allocs else 0.);
  ]

(* The Trace.Format share of replaying each trace [k] times: seconds of
   a decode-only pass (Trace.Format.next_fused with no-op callbacks),
   records and bytes, each times [k]. *)
let decode_cost traces =
  List.fold_left
    (fun (t, r, b) (path, k) ->
      let k = float_of_int k in
      let rd =
        match Trace.Format.open_file path with
        | Ok rd -> rd
        | Error msg -> failwith msg
      in
      let poke ~addr:_ ~v:_ = () and store ~addr:_ ~v:_ = () in
      let resolve _ a _ = a in
      let rec loop () =
        match Trace.Format.next_fused rd ~poke ~resolve ~store with
        | Trace.Format.End -> ()
        | _ -> loop ()
      in
      let n = Trace.Format.records rd in
      let (), dt = timed (fun () -> Fun.protect ~finally:(fun () -> Trace.Format.close rd) loop) in
      ( t +. (dt *. k),
        r +. (float_of_int n *. k),
        b +. (float_of_int (Unix.stat path).Unix.st_size *. k) ))
    (0., 0., 0.) traces

let vmhwm_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              Fun.id
        | _ -> scan ()
        | exception End_of_file -> 0
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let self_rss_kb () = vmhwm_kb "self"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh, empty directory under the run's working directory. *)
let fresh_dir =
  let n = ref 0 in
  fun ctx prefix ->
    incr n;
    let d = Filename.concat ctx.work_dir (Printf.sprintf "%s-%d" prefix !n) in
    rm_rf d;
    Unix.mkdir d 0o755;
    d
