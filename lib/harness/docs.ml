(* Generated documentation blocks: the numeric sections of
   EXPERIMENTS.md live between `<!-- generated:ID -->` and
   `<!-- /generated:ID -->` markers and are rendered from the measured
   matrix, so the committed prose can never silently disagree with the
   committed numbers.  `repro docs` rewrites the blocks in place;
   `repro docs --check` regenerates into memory and fails with a
   readable diff when the committed document (or the golden results
   file) has drifted. *)

let open_marker id = Printf.sprintf "<!-- generated:%s -->" id
let close_marker id = Printf.sprintf "<!-- /generated:%s -->" id

type section = {
  id : string;
  title : string;
  render : [ `Static of unit -> string | `Matrix of Matrix.t -> string ];
}

let sections =
  let static id title f = { id; title; render = `Static f } in
  let matrix id title f = { id; title; render = `Matrix f } in
  [
    static "table1" "Table 1 — porting complexity" Table1.render;
    matrix "table2" "Table 2 — allocation behaviour with regions"
      Table23.render_table2;
    matrix "table3" "Table 3 — allocation behaviour with malloc"
      Table23.render_table3;
    matrix "fig8" "Figure 8 — memory overhead" Fig8.render;
    matrix "fig9" "Figure 9 — execution time (base + memory management)"
      Fig9.render;
    matrix "fig10" "Figure 10 — cycles lost to stalls" Fig10.render;
    matrix "fig11" "Figure 11 — cost of safety, decomposed" Fig11.render;
    static "ablations" "Ablations (this reproduction's additions)"
      Ablations.render;
    static "limitation" "Limitation study (the paper's section-1 counter-example)"
      Limitation.render;
    matrix "claims" "Claims check" Claims.render;
  ]

let render_section m s =
  match s.render with `Static f -> f () | `Matrix f -> f m

(* The block renderers of one regeneration over [m]: the sections, then
   the blocks no experiment prints.  The gentraces and timeline blocks
   share one set of generated-trace replays, and the mutators and
   bumppath blocks one server engine run per mutator count. *)
let blocks m : (string * (unit -> string)) list =
  let gen = lazy (Gentraces.replays m) in
  let server = Mutators.servers m in
  List.map (fun s -> (s.id, fun () -> render_section m s)) sections
  @ [
      ("gentraces", fun () -> Gentraces.md (Lazy.force gen));
      ("timeline", fun () -> Gentraces.timeline_md (Lazy.force gen));
      ("mutators", fun () -> Mutators.md m server);
      ("bumppath", fun () -> Bumppath.md m server);
    ]

(* Naive substring search — the documents are tens of kilobytes. *)
let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  if m = 0 then None else go (max 0 from)

(* Every `<!-- generated:ID -->` open marker in the document, with its
   position, in document order. *)
let block_ids doc =
  let prefix = "<!-- generated:" in
  let rec go from acc =
    match find_sub doc prefix from with
    | None -> List.rev acc
    | Some i -> (
        let start = i + String.length prefix in
        match find_sub doc " -->" start with
        | None -> List.rev acc
        | Some j -> go (j + 4) ((String.sub doc start (j - start), i) :: acc))
  in
  go 0 []

(* Replace the body of block [id] (everything between the end of the
   open-marker line and the start of the close marker) with
   [content]. *)
let substitute_block doc id content =
  match find_sub doc (open_marker id) 0 with
  | None -> Error (Printf.sprintf "marker %s not found" (open_marker id))
  | Some i -> (
      let body_start = i + String.length (open_marker id) in
      match find_sub doc (close_marker id) body_start with
      | None ->
          Error
            (Printf.sprintf "unterminated block %S: missing %s" id
               (close_marker id))
      | Some j ->
          Ok
            (String.sub doc 0 body_start
            ^ "\n" ^ content ^ "\n"
            ^ String.sub doc j (String.length doc - j)))

let regenerate m doc =
  let blocks = blocks m in
  let known = List.map fst blocks in
  let unknown =
    List.filter (fun (id, _) -> not (List.mem id known)) (block_ids doc)
  in
  match unknown with
  | (id, _) :: _ ->
      Error
        (Printf.sprintf "unknown generated block %S (known: %s)" id
           (String.concat ", " known))
  | [] ->
      List.fold_left
        (fun acc (id, render) ->
          Result.bind acc (fun doc ->
              if find_sub doc (open_marker id) 0 = None then Ok doc
              else substitute_block doc id (render ())))
        (Ok doc) blocks

(* Readable line-level drift: the differing middle of the two texts
   after stripping the common prefix and suffix, capped. *)
let drift ~label ~current ~regenerated =
  if String.equal current regenerated then []
  else begin
    let a = Array.of_list (String.split_on_char '\n' current) in
    let b = Array.of_list (String.split_on_char '\n' regenerated) in
    let na = Array.length a and nb = Array.length b in
    let pre = ref 0 in
    while !pre < na && !pre < nb && a.(!pre) = b.(!pre) do
      incr pre
    done;
    let suf = ref 0 in
    while
      !suf < na - !pre && !suf < nb - !pre
      && a.(na - 1 - !suf) = b.(nb - 1 - !suf)
    do
      incr suf
    done;
    let cap = 20 in
    let slice arr n tag =
      let k = n - !pre - !suf in
      let shown = min k cap in
      List.init shown (fun i -> Printf.sprintf "  %s %s" tag arr.(!pre + i))
      @ (if k > cap then [ Printf.sprintf "  %s ... (%d more lines)" tag (k - cap) ] else [])
    in
    (Printf.sprintf "%s: drift at line %d:" label (!pre + 1))
    :: (slice a na "-" @ slice b nb "+")
  end

let write_golden path store =
  match Results.Store.load path with
  | Ok committed when Results.Store.diff ~expected:committed ~actual:store = []
    ->
      false
  | _ ->
      Tracefiles.write_file path (Results.Store.to_string store);
      true

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
