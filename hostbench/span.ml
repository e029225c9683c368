(* In-memory span recorder for traced runs.  Spans are taken by the
   benchmark around its calls into the layers, kept in memory, and
   written out as Chrome trace JSON when the run ends. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  parent : int;  (* -1 at the root *)
  name : string;
  layer : string;
  attrs : (string * string) list;
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (* completed, newest first *)
  mutable stack : int list;  (* open spans, innermost first *)
  mutable next : int;
}

let create () = { enabled = true; spans = []; stack = []; next = 0 }

(* Untimed passes share this recorder: with_span on it is a branch and
   the call. *)
let off = { enabled = false; spans = []; stack = []; next = 0 }

let enabled t = t.enabled

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let parent t = match t.stack with p :: _ -> p | [] -> -1

let with_span t ?(attrs = []) ~layer name f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t and parent = parent t in
    t.stack <- id :: t.stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; name; layer; attrs; start; stop } :: t.spans)
      f
  end

(* A completed interval the layer timed itself (a matrix cell reported
   through [on_cell]), filed under the innermost open span. *)
let record t ?(attrs = []) ~layer name ~start ~stop =
  if t.enabled then
    t.spans <-
      { id = fresh_id t; parent = parent t; name; layer; attrs; start; stop }
      :: t.spans

let spans t = List.rev t.spans

(* Self time summed per layer: each span's length minus what its
   children cover. *)
let self_by_layer t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start, s.stop))
    t.spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        Stats.self_time ~start:s.start ~stop:s.stop
          (Hashtbl.find_all children s.id)
      in
      let prev = Option.value ~default:0. (Hashtbl.find_opt by_layer s.layer) in
      Hashtbl.replace by_layer s.layer (prev +. self))
    t.spans;
  by_layer

(* Inclusive time of the spans carrying attribute [key] = [value]. *)
let total_with t key value =
  List.fold_left
    (fun acc s ->
      if List.assoc_opt key s.attrs = Some value then acc +. (s.stop -. s.start)
      else acc)
    0. t.spans

let to_chrome t =
  let module J = Results.Json in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity t.spans
  in
  let us x = J.Float ((x -. origin) *. 1e6) in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.String s.name);
                   ("cat", J.String s.layer);
                   ("ph", J.String "X");
                   ("ts", us s.start);
                   ("dur", J.Float ((s.stop -. s.start) *. 1e6));
                   ("pid", J.Int 1);
                   ("tid", J.Int 1);
                   ( "args",
                     J.Obj
                       ((("id", J.Int s.id) :: ("parent", J.Int s.parent)
                        :: List.map (fun (k, v) -> (k, J.String v)) s.attrs)) );
                 ])
             (spans t)) );
      ("displayTimeUnit", J.String "ms");
    ]
