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

(* The block renderers of one regeneration over [m].  The gentraces
   and timeline blocks share one set of generated-trace replays. *)
let blocks m : (string * (unit -> string)) list =
  let gen = lazy (Gentraces.replays m) in
  [
    ("table1", fun () -> Table1.md ());
    ("table2", fun () -> Table23.table2_md m);
    ("table3", fun () -> Table23.table3_md m);
    ("fig8", fun () -> Fig8.md m);
    ("fig9", fun () -> Fig9.md m);
    ("fig10", fun () -> Fig10.md m);
    ("fig11", fun () -> Fig11.md m);
    ("claims", fun () -> Claims.md m);
    ("gentraces", fun () -> Gentraces.md (Lazy.force gen));
    ("timeline", fun () -> Gentraces.timeline_md (Lazy.force gen));
    ("mutators", fun () -> Mutators.md m);
    ("bumppath", fun () -> Bumppath.md m);
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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
