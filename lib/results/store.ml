let file_schema = "regions-repro/results/v1"

type t = {
  tbl : (string * string, Cell.t) Hashtbl.t;
  mutable order : (string * string) list;  (* reversed insertion order *)
}

let create () = { tbl = Hashtbl.create 64; order = [] }

let key c = (Cell.workload c, Cell.mode c)

let add t c =
  let k = key c in
  if not (Hashtbl.mem t.tbl k) then t.order <- k :: t.order;
  Hashtbl.replace t.tbl k c

let find t ~workload ~mode = Hashtbl.find_opt t.tbl (workload, mode)
let mem t ~workload ~mode = Hashtbl.mem t.tbl (workload, mode)
let length t = Hashtbl.length t.tbl

let to_list t =
  List.rev_map (fun k -> Hashtbl.find t.tbl k) t.order

let of_list cells =
  let t = create () in
  List.iter (add t) cells;
  t

(* ------------------------------------------------------------------ *)
(* File form: one JSON object holding every cell, in insertion order.
   Deterministic bytes (see {!Json}), so a regenerated store can be
   compared to a committed golden with [diff]. *)

let to_json t =
  Json.Obj
    [
      ("schema", Json.String file_schema);
      ("cells", Json.List (List.map Cell.to_json (to_list t)));
    ]

let to_string t = Json.to_string (to_json t)

let ( let* ) = Result.bind

let of_json j =
  let* s =
    match Option.bind (Json.member "schema" j) Json.to_str with
    | Some s -> Ok s
    | None -> Error "missing store schema"
  in
  if s <> file_schema then
    Error (Printf.sprintf "unsupported store schema %S (want %S)" s file_schema)
  else
    let* cells =
      match Option.bind (Json.member "cells" j) Json.to_list with
      | Some l -> Ok l
      | None -> Error "missing field \"cells\""
    in
    let* cells =
      List.fold_left
        (fun acc cj ->
          let* acc = acc in
          let* c = Cell.of_json cj in
          Ok (c :: acc))
        (Ok []) cells
    in
    Ok (of_list (List.rev cells))

let of_string s =
  let* j = Json.of_string s in
  of_json j

let load path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no such file: %s" path)
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let s = really_input_string ic (in_channel_length ic) in
        of_string s)
  end

(* ------------------------------------------------------------------ *)
(* Golden comparison: everything a renderer can see must match;
   provenance is ignored (build ids differ between builds). *)

let diff ~expected ~actual =
  let lines = ref [] in
  let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  List.iter
    (fun c ->
      let w, m = key c in
      match find actual ~workload:w ~mode:m with
      | None -> say "%s/%s: missing from regenerated results" w m
      | Some c' ->
          List.iter
            (fun (path, a, b) ->
              say "%s/%s: %s: golden %s, regenerated %s" w m path a b)
            (Json.diff ~ignore_keys:[ "provenance" ] (Cell.to_json c)
               (Cell.to_json c')))
    (to_list expected);
  List.iter
    (fun c ->
      let w, m = key c in
      if not (mem expected ~workload:w ~mode:m) then
        say "%s/%s: not in the golden file (regenerate it)" w m)
    (to_list actual);
  List.rev !lines
