type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing.  Deterministic: fields print in the order they were
   built, ints as ints, floats with %.17g (which round-trips every
   finite double), strings with the minimal JSON escapes.  The same
   value always prints to the same bytes, which is what lets golden
   files and cache entries be compared bytewise. *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec emit b ~indent ~level v =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char b '\n' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s -> escape b s
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
      Buffer.add_char b '[';
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (level + 1);
          emit b ~indent ~level:(level + 1) x)
        xs;
      nl ();
      pad level;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_char b '{';
      nl ();
      List.iteri
        (fun i (k, x) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (level + 1);
          escape b k;
          Buffer.add_string b (if indent then ": " else ":");
          emit b ~indent ~level:(level + 1) x)
        fields;
      nl ();
      pad level;
      Buffer.add_char b '}'

let to_string ?(indent = true) v =
  let b = Buffer.create 1024 in
  emit b ~indent ~level:0 v;
  if indent then Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing.  A plain recursive-descent parser over the grammar we
   emit (all of JSON except \uXXXX surrogate pairs, which we never
   produce: the schema's strings are ASCII identifiers and summaries). *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at byte %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else error st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then error st "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' -> (
        if st.pos >= String.length st.src then error st "unterminated escape";
        let e = st.src.[st.pos] in
        st.pos <- st.pos + 1;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            if st.pos + 4 > String.length st.src then error st "short \\u escape";
            let hex = String.sub st.src st.pos 4 in
            st.pos <- st.pos + 4;
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c -> c
              | None -> error st "bad \\u escape"
            in
            (* We only ever emit \u00XX for control characters. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else error st "non-ASCII \\u escape unsupported"
        | _ -> error st "unknown escape");
        go ())
    | c -> Buffer.add_char b c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.src && is_num st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
  if is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> error st "bad number"
  else
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> (
        (* integer overflowing native int: keep it as a float *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> error st "bad number")

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let items = ref [ parse_value st ] in
        skip_ws st;
        while peek st = Some ',' do
          st.pos <- st.pos + 1;
          items := parse_value st :: !items;
          skip_ws st
        done;
        expect st ']';
        List (List.rev !items)
      end
  | Some '{' ->
      st.pos <- st.pos + 1;
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let fields = ref [ field () ] in
        skip_ws st;
        while peek st = Some ',' do
          st.pos <- st.pos + 1;
          fields := field () :: !fields;
          skip_ws st
        done;
        expect st '}';
        Obj (List.rev !fields)
      end
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then Error "trailing bytes after JSON value"
      else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors used by the decoders. *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None

(* ------------------------------------------------------------------ *)
(* Structural diff, used by the golden gate to explain a mismatch as
   field paths instead of a byte offset.  [ignore_keys] prunes whole
   subtrees (provenance differs between builds by construction). *)

let rec diff ?(ignore_keys = []) ~path a b acc =
  let here fmt = Printf.ksprintf (fun s -> s) fmt in
  let leaf sa sb = (path, sa, sb) :: acc in
  match (a, b) with
  | Obj fa, Obj fb ->
      let keys =
        List.sort_uniq compare (List.map fst fa @ List.map fst fb)
        |> List.filter (fun k -> not (List.mem k ignore_keys))
      in
      List.fold_left
        (fun acc k ->
          let sub = if path = "" then k else path ^ "." ^ k in
          match (List.assoc_opt k fa, List.assoc_opt k fb) with
          | Some va, Some vb -> diff ~ignore_keys ~path:sub va vb acc
          | Some _, None -> (sub, "present", "missing") :: acc
          | None, Some _ -> (sub, "missing", "present") :: acc
          | None, None -> acc)
        acc keys
  | List xa, List xb when List.length xa = List.length xb ->
      List.fold_left2
        (fun (i, acc) va vb ->
          (i + 1, diff ~ignore_keys ~path:(here "%s[%d]" path i) va vb acc))
        (0, acc) xa xb
      |> snd
  | List xa, List xb ->
      leaf
        (here "list of %d" (List.length xa))
        (here "list of %d" (List.length xb))
  | a, b when a = b -> acc
  | a, b -> leaf (to_string ~indent:false a) (to_string ~indent:false b)

let diff ?ignore_keys a b = List.rev (diff ?ignore_keys ~path:"" a b [])
