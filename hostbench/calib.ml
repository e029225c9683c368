(* Host-speed probe.

   This benchmark runs on shared machines whose speed drifts by tens of
   percent over seconds to minutes as neighbours come and go, and the
   simulator, being memory-bound, feels it most.  A fixed piece of
   stdlib-only work is timed between the operations of a pass (never
   inside one), and each operation's time is scaled by [reference /
   probe time around it], i.e. reported at the speed of a quiet host.

   The probe is xorshift-random updates of two arrays, timed together:
   - 40000 updates of an 8 MB array, run once untimed just before, so
     that the timed run finds the 2 MB of lines it touches in the L2
     and L3 whatever the workload left there;
   - 20000 updates of a 4 MB array last touched by the previous probe,
     whose lines the workload and the neighbours have since pushed out
     to the L3 or to memory, the path the simulator's misses take.
   In seven-run trials on every workload, scaling by either part alone
   left spreads up to 14% (warm part) and 22% (cold part) where scaling
   by both left at most 12%, on a host whose raw spreads were 8-56%.
   The cold part can still depend on the workload: a smaller footprint
   between two probes leaves more of its lines in the L3.  Runs record
   their unscaled times and probe times, so that this can be checked.
   Probe calls are recorded, and [spent] lets a caller take them out of
   any interval that contains them. *)

(* Outside the OCaml heap: as live heap data they would let the major
   heap, and so peak_rss_kb, grow by about three times their size. *)
let words n =
  let a = Bigarray.(Array1.create int c_layout) n in
  Bigarray.Array1.fill a 0;
  a

let warm = words (1 lsl 20)
let cold = words (1 lsl 19)

(* The timed part of a probe on a quiet host, about its fastest on the
   2-vCPU Xeon VM the baselines come from.  Scaled times are reported
   at this speed. *)
let reference_s = 6.0e-4

let updates (data : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) n =
  let mask = Bigarray.Array1.dim data - 1 in
  let x = ref 88172645463325252 in
  for i = 1 to n do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land mask in
    data.{j} <- data.{j} + i
  done

(* Probe calls in time order: when each began and ended, and how long
   its timed part took. *)
let starts = ref (Array.make 1024 0.)
let stops = ref (Array.make 1024 0.)
let durations = ref (Array.make 1024 0.)
let count = ref 0

let sample () =
  let start = Span.now () in
  updates warm 40_000;
  let t0 = Span.now () in
  updates warm 40_000;
  updates cold 20_000;
  let stop = Span.now () in
  if !count = Array.length !starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0.) in
    starts := grow !starts;
    stops := grow !stops;
    durations := grow !durations
  end;
  !starts.(!count) <- start;
  !stops.(!count) <- stop;
  !durations.(!count) <- stop -. t0;
  incr count

let last () = if !count = 0 then neg_infinity else !stops.(!count - 1)

(* A probe at an operation boundary, unless one ran in the last
   [every_s].  In a traced run it is a span of the benchmark's own. *)
let tick ?(every_s = 0.05) spans =
  if Span.now () -. last () > every_s then
    Span.with_span spans ~layer:"bench" "host-speed probe" sample

(* Index of the first probe that began at or after [t]. *)
let first_after t =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if !starts.(mid) < t then search (mid + 1) hi else search lo mid
  in
  search 0 !count

(* Seconds of probing that lie wholly inside [start, stop]. *)
let spent ~start ~stop =
  let rec go i acc =
    if i < !count && !stops.(i) <= stop then
      go (i + 1) (acc +. (!stops.(i) -. !starts.(i)))
    else acc
  in
  go (first_after start) 0.

(* Median timed part of the probes that began within [start, stop]. *)
let median_probe ~start ~stop =
  let rec collect i acc =
    if i < !count && !starts.(i) <= stop then collect (i + 1) (!durations.(i) :: acc)
    else acc
  in
  match collect (first_after start) [] with [] -> None | ds -> Some (Stats.median ds)

(* Reference speed over the host speed seen during [start, stop]: the
   factor that scales a time measured then to the quiet-host speed.
   Probes within [margin] of the interval count; with none, the
   nearest one does. *)
let factor ?(margin = 0.25) ~start ~stop () =
  if !count = 0 then 1.
  else
    let probe =
      match median_probe ~start:(start -. margin) ~stop:(stop +. margin) with
      | Some p -> p
      | None ->
          let i = min (first_after start) (!count - 1) in
          let j = max 0 (i - 1) in
          let mid = (start +. stop) /. 2. in
          let d k = Float.abs (!starts.(k) -. mid) in
          !durations.(if d j < d i then j else i)
    in
    reference_s /. probe
