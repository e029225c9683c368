(* Counters/gauges/histograms over [Atomic] cells.  Everything here is
   host-side bookkeeping: no simulated load, store or instruction is
   ever issued, which is what makes the enabled/disabled byte-identity
   guarantee trivial to honour and cheap to test. *)

let buckets = 64

type hist = { counts : int Atomic.t array; sum : int Atomic.t }

type kind =
  | Kcounter of int Atomic.t
  | Kgauge of float Atomic.t
  | Khist of hist

type entry = { e_name : string; e_labels : (string * string) list; kind : kind }

type t = {
  mutable on : bool;
  lock : Mutex.t;
  mutable entries : entry list;  (** registration order, newest first *)
}

let create ?(enabled = false) () =
  { on = enabled; lock = Mutex.create (); entries = [] }

let default = create ()
let set_enabled t on = t.on <- on

type counter = { c : int Atomic.t; c_reg : t }
type gauge = { g : float Atomic.t; g_reg : t }
type histogram = { h : hist; h_reg : t }

let kind_name = function
  | Kcounter _ -> "counter"
  | Kgauge _ -> "gauge"
  | Khist _ -> "histogram"

(* Find-or-create under the registration mutex.  [make] must allocate
   a fresh kind; [same] projects the existing one. *)
let register t name labels make same =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match
        List.find_opt
          (fun e -> e.e_name = name && e.e_labels = labels)
          t.entries
      with
      | Some e -> (
          match same e.kind with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Obs.Metrics: %s already registered as a %s" name
                   (kind_name e.kind)))
      | None ->
          let kind, v = make () in
          t.entries <- { e_name = name; e_labels = labels; kind } :: t.entries;
          v)

let counter t ?(labels = []) name =
  register t name labels
    (fun () ->
      let c = Atomic.make 0 in
      (Kcounter c, { c; c_reg = t }))
    (function Kcounter c -> Some { c; c_reg = t } | _ -> None)

let inc c = if c.c_reg.on then ignore (Atomic.fetch_and_add c.c 1)
let add c n = if c.c_reg.on then ignore (Atomic.fetch_and_add c.c n)

let gauge t ?(labels = []) name =
  register t name labels
    (fun () ->
      let g = Atomic.make 0.0 in
      (Kgauge g, { g; g_reg = t }))
    (function Kgauge g -> Some { g; g_reg = t } | _ -> None)

let set g v = if g.g_reg.on then Atomic.set g.g v

let histogram t ?(labels = []) name =
  register t name labels
    (fun () ->
      let h =
        {
          counts = Array.init buckets (fun _ -> Atomic.make 0);
          sum = Atomic.make 0;
        }
      in
      (Khist h, { h; h_reg = t }))
    (function Khist h -> Some { h; h_reg = t } | _ -> None)

(* Bucket [b] covers [2^(b-1), 2^b): the index is the bit length of
   the value.  Zero (and any negative input) files under bucket 0. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      incr b;
      x := !x lsr 1
    done;
    !b
  end

let observe hi v =
  if hi.h_reg.on then begin
    let b = bucket_of v in
    ignore (Atomic.fetch_and_add hi.h.counts.(b) 1);
    ignore (Atomic.fetch_and_add hi.h.sum (max v 0))
  end

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { buckets : (int * int) list; sum : int; count : int }

type series = { name : string; labels : (string * string) list; value : value }

let snapshot t =
  let read e =
    let value =
      match e.kind with
      | Kcounter c -> Counter_v (Atomic.get c)
      | Kgauge g -> Gauge_v (Atomic.get g)
      | Khist h ->
          let bs = ref [] and count = ref 0 in
          for b = buckets - 1 downto 0 do
            let n = Atomic.get h.counts.(b) in
            if n > 0 then begin
              bs := (b, n) :: !bs;
              count := !count + n
            end
          done;
          Histogram_v { buckets = !bs; sum = Atomic.get h.sum; count = !count }
    in
    { name = e.e_name; labels = e.e_labels; value }
  in
  Mutex.lock t.lock;
  let entries = t.entries in
  Mutex.unlock t.lock;
  List.map read entries
  |> List.sort (fun a b ->
         match compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)
