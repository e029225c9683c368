(* The commands and files the docs show exist.  Every `repro SUB` (or
   `bin/main.exe -- SUB`) invocation in a code line or code span of the
   checked documents, in a shell line of the CI workflow and in a rule
   action of bin/dune, and every row of README's command table, must
   name a real subcommand, and every flag written next to it must be
   one that the subcommand's --help=plain lists.  Only --help runs.
   Every repository path in a code line or code span must name a file
   or directory of the source tree.  And every [val] of a [lib/]
   interface has a caller in another compilation unit of lib/, bin/,
   test/, hostbench/ or examples/: the export audit below, with its
   allowlist of the values exported on purpose without one. *)

let exe = "../bin/main.exe"

let documents =
  [
    "../README.md";
    "../EXPERIMENTS.md";
    "../DESIGN.md";
    "../hostbench/README.md";
    "../.claude/skills/verify/SKILL.md";
  ]

let read_file p = In_channel.with_open_bin p In_channel.input_all

let help =
  let memo = Hashtbl.create 16 in
  fun args ->
    match Hashtbl.find_opt memo args with
    | Some s -> s
    | None ->
        let argv = Array.of_list ((exe :: args) @ [ "--help=plain" ]) in
        let ic = Unix.open_process_args_in exe argv in
        let s = In_channel.input_all ic in
        ignore (Unix.close_process_in ic);
        Hashtbl.replace memo args s;
        s

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_name_char c = is_letter c || (c >= '0' && c <= '9') || c = '-'

(* The leading run of name characters: "--jobs=N" -> "--jobs". *)
let name_prefix s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && is_name_char s.[!i] do
    incr i
  done;
  String.sub s 0 !i

(* Help entries sit at a 7-space indent under their section heading:
   subcommand names under COMMANDS, option spellings ("-j N, --jobs=N")
   under the option sections. *)
let entries text =
  let section = ref "" in
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         if l <> "" && l.[0] <> ' ' then begin
           section := l;
           None
         end
         else if
           String.length l > 7 && String.sub l 0 7 = "       " && l.[7] <> ' '
         then Some (!section, String.sub l 7 (String.length l - 7))
         else None)

let subcommands =
  lazy
    (entries (help [])
    |> List.filter_map (fun (section, e) ->
           if section = "COMMANDS" && name_prefix e <> "" then
             Some (name_prefix e)
           else None))

(* Each option of [sub] as its spellings ("-j N, --jobs=N" ->
   ["-j"; "--jobs"]), with the options section that lists it. *)
let option_entries sub =
  entries (help [ sub ])
  |> List.filter_map (fun (section, e) ->
         if String.ends_with ~suffix:"OPTIONS" section && e.[0] = '-' then
           Some
             ( section,
               List.map
                 (fun o -> name_prefix (String.trim o))
                 (String.split_on_char ',' e) )
         else None)

let options sub = List.concat_map snd (option_entries sub)

(* A flag as written in prose or a command: "[--check]" -> "--check",
   "--plan=X" -> "--plan", "-j4" -> "-j"; [None] for anything that is
   not one. *)
let flag token =
  let t = String.trim token in
  let t =
    if t <> "" && (t.[0] = '[' || t.[0] = '(') then
      String.sub t 1 (String.length t - 1)
    else t
  in
  let f = name_prefix t in
  let letter_at i = String.length f > i && is_letter f.[i] in
  if f = "" || f.[0] <> '-' then None
  else if letter_at 1 then Some (String.sub f 0 2)
  else if f.[1] = '-' && letter_at 2 then Some f
  else None

let tokens s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (fun t -> t <> "")

(* Where the flags of one invocation end. *)
let is_stop t =
  List.mem t [ "|"; "||"; "&&"; ";"; "--"; "repro" ]
  || List.exists
       (fun prefix -> String.starts_with ~prefix t)
       [ ">"; "<"; "2>"; "&>"; "#" ]

(* [$repro] is what CI names the built binary; [./main.exe] is how
   bin/dune's rules run it. *)
let is_repro t =
  List.mem t [ "repro"; "bin/main.exe"; "./main.exe"; "\"$repro\"" ]
  || String.ends_with ~suffix:"/bin/main.exe" t

(* Every [(SUB, flags)] invoked in one code text. *)
let rec invocations = function
  | [] -> []
  | t :: rest when is_repro t -> (
      let rest = match rest with "--" :: r -> r | r -> r in
      match rest with
      | sub :: after when sub.[0] >= 'a' && sub.[0] <= 'z' && name_prefix sub = sub
        ->
          let rec flags = function
            | t :: _ when is_stop t -> []
            | t :: r -> Option.to_list (flag t) @ flags r
            | [] -> []
          in
          (sub, flags after) :: invocations after
      | _ -> invocations rest)
  | _ :: rest -> invocations rest

(* Code lines (fenced blocks, backslash continuations joined) and inline
   code spans (per paragraph, so a span may wrap a line). *)
let code_texts text =
  let out = ref [] and para = Buffer.create 256 and cont = Buffer.create 80 in
  let fenced = ref false in
  let flush_para () =
    String.split_on_char '`' (Buffer.contents para)
    |> List.iteri (fun i s -> if i mod 2 = 1 then out := s :: !out);
    Buffer.clear para
  in
  List.iter
    (fun line ->
      let trimmed = String.trim line in
      if String.starts_with ~prefix:"```" trimmed then begin
        flush_para ();
        fenced := not !fenced
      end
      else if !fenced then
        if String.ends_with ~suffix:"\\" trimmed then
          Buffer.add_string cont
            (String.sub trimmed 0 (String.length trimmed - 1) ^ " ")
        else begin
          out := (Buffer.contents cont ^ line) :: !out;
          Buffer.clear cont
        end
      else if trimmed = "" then flush_para ()
      else Buffer.add_string para (line ^ " "))
    (String.split_on_char '\n' text);
  flush_para ();
  List.rev !out

(* README's command table: each row's first code span starts with the
   subcommand, and every flag in the row's code spans belongs to it.
   A row also names every option of its own subcommand (any one
   spelling), unless it elides some with "…"; the options every
   subcommand has (COMMON OPTIONS) go unnamed. *)
let table_rows text =
  let in_table = ref false in
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if String.starts_with ~prefix:"| subcommand |" line then
           in_table := true
         else if not (String.starts_with ~prefix:"|" line) then
           in_table := false;
         let spans =
           String.split_on_char '`' line
           |> List.filteri (fun i _ -> i mod 2 = 1)
           |> List.map tokens
         in
         match spans with
         | (sub :: _) :: _ when !in_table ->
             let elided =
               let dots = "…" and n = String.length line in
               let k = String.length dots in
               let rec from i =
                 i + k <= n && (String.sub line i k = dots || from (i + 1))
               in
               from 0
             in
             Some (sub, List.concat_map (List.filter_map flag) spans, elided)
         | _ -> None)

let unnamed (sub, flags, elided) =
  if elided || not (List.mem sub (Lazy.force subcommands)) then []
  else
    option_entries sub
    |> List.filter_map (fun (section, spellings) ->
           if
             section = "COMMON OPTIONS"
             || List.exists (fun o -> List.mem o flags) spellings
           then None
           else
             Some
               (Printf.sprintf
                  "README's `%s` row names no %s (name it, or elide with …)"
                  sub (List.hd spellings)))

let problems (sub, flags) =
  if not (List.mem sub (Lazy.force subcommands)) then
    [ Printf.sprintf "`repro %s`: no such subcommand" sub ]
  else
    let known = options sub in
    List.filter_map
      (fun f ->
        if List.mem f known then None
        else Some (Printf.sprintf "`repro %s %s`: %s has no %s" sub f sub f))
      flags

let section_ids =
  List.map (fun (s : Harness.Docs.section) -> s.id) Harness.Docs.sections

(* Every [experiment ID] in a code text up to a shell comment, [ID] a
   lower-case name ("all", "fig9"; not "<id>", "ID" or a flag). *)
let rec experiment_ids = function
  | t :: _ when String.starts_with ~prefix:"#" t -> []
  | "experiment" :: id :: rest
    when id <> "" && id.[0] >= 'a' && id.[0] <= 'z' && name_prefix id = id ->
      id :: experiment_ids rest
  | _ :: rest -> experiment_ids rest
  | [] -> []

let unknown_experiments codes =
  List.concat_map (fun c -> experiment_ids (tokens c)) codes
  |> List.filter (fun id -> not (List.mem id ("all" :: section_ids)))
  |> List.map (fun id ->
         Printf.sprintf "`experiment %s`: no such section (have: %s, all)" id
           (String.concat ", " section_ids))

let check_codes path codes rows =
  let found =
    List.concat_map (fun c -> invocations (tokens c)) codes
    @ List.map (fun (sub, flags, _) -> (sub, flags)) rows
  in
  if found = [] then Alcotest.failf "%s: no repro invocations found" path;
  match
    List.concat_map problems found
    @ List.concat_map unnamed rows
    @ unknown_experiments codes
  with
  | [] -> ()
  | lines ->
      Alcotest.failf "%s names commands that do not exist:\n%s" path
        (String.concat "\n" lines)

let check_document path () =
  let text = read_file path in
  let rows = if path = "../README.md" then table_rows text else [] in
  if path = "../README.md" && rows = [] then
    Alcotest.fail "README.md: command table not found";
  check_codes path (code_texts text) rows

(* The CLI spellings CI runs.  A workflow's code texts are its shell
   lines, backslash continuations joined and comments dropped; a dune
   file's are its [(run ...)] actions, which hold no parenthesis. *)
let shell_lines text =
  let cont = Buffer.create 80 in
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let trimmed = String.trim line in
         if String.starts_with ~prefix:"#" trimmed then None
         else if String.ends_with ~suffix:"\\" trimmed then begin
           Buffer.add_string cont
             (String.sub trimmed 0 (String.length trimmed - 1) ^ " ");
           None
         end
         else begin
           let l = Buffer.contents cont ^ trimmed in
           Buffer.clear cont;
           Some l
         end)

let run_actions text =
  let uncommented =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           match String.index_opt l ';' with
           | Some i -> String.sub l 0 i
           | None -> l)
    |> String.concat " "
  in
  String.split_on_char '(' uncommented
  |> List.filter_map (fun form ->
         match String.index_opt form ')' with
         | Some i when String.starts_with ~prefix:"run " form ->
             Some (String.sub form 4 (i - 4))
         | _ -> None)

let check_script codes path () = check_codes path (codes (read_file path)) []

(* A path is a code token holding a '/' whose last segment has a source
   extension or whose first segment is a top-level directory.  Absolute
   paths (the scratch files of the commands shown), shell expansions
   and @alias targets are not repository paths. *)
let extensions =
  [ ".ml"; ".mli"; ".md"; ".json"; ".txt"; ".py"; ".sh"; ".cq"; ".exe"; ".yml" ]

let is_path t =
  let top = Filename.concat ".." (List.hd (String.split_on_char '/' t)) in
  String.contains t '/'
  && (not (String.contains "/~@-" t.[0]))
  && (not (List.exists (String.contains t) [ '$'; '*'; '{'; '<'; '>' ]))
  && (List.exists (fun suffix -> String.ends_with ~suffix t) extensions
     || (Sys.file_exists top && Sys.is_directory top))

(* Quotes, brackets, punctuation and [VAR=] prefixes are not part of a
   path. *)
let paths code =
  let blank c = if String.contains "\"'()[],;:=" c then ' ' else c in
  List.filter is_path (tokens (String.map blank code))

(* Build outputs name their sources: .../_build/default/X is X, and an
   X.exe is built from X.ml.  DESIGN's tables name library files from
   lib/, so a path may resolve there too. *)
let path_exists t =
  let segments = String.split_on_char '/' t in
  let rec source = function
    | "_build" :: "default" :: rest -> rest
    | _ :: rest -> source rest
    | [] -> segments
  in
  let t = String.concat "/" (source segments) in
  let t =
    if Filename.check_suffix t ".exe" then Filename.chop_suffix t ".exe" ^ ".ml"
    else t
  in
  Sys.file_exists (Filename.concat ".." t)
  || Sys.file_exists (Filename.concat "../lib" t)

(* hostbench/README.md is left out: it still names the deleted
   bench/main.ml and scripts/bench.sh, and it changes only together
   with the benchmark it documents (ROADMAP item 1). *)
let path_documents =
  List.filter (fun p -> p <> "../hostbench/README.md") documents

let check_paths path () =
  let missing =
    code_texts (read_file path)
    |> List.concat_map paths
    |> List.sort_uniq compare
    |> List.filter (fun t -> not (path_exists t))
  in
  if missing <> [] then
    Alcotest.failf "%s names paths that do not exist:\n%s" path
      (String.concat "\n" missing)

(* Export audit: every [val] of a [lib/] interface must be referenced
   from another compilation unit of the source trees below.  Sources
   are parsed with the compiler's own parser, and module paths are
   resolved to the library unit they name: a library's units are in
   scope inside it under their short names, and [module X = P] (also
   [let module]) binds an alias.  A reference is a qualified path
   ([Lib.Unit.v], [X.v] through an alias), a bare [v] under an [open],
   [let open] or [M.( ... )] of a module that exports [v], or an
   [include] of (or any other whole use of, like a functor argument)
   the module holding [v].  A unit's references to itself do not count.
   A val of a nested signature is [Lib.Unit.Inner.v]. *)

let trees = [ "../lib"; "../bin"; "../test"; "../hostbench"; "../examples" ]

(* Values exported on purpose with no caller in these trees; each
   entry must name an exported val that still has no caller. *)
let allowlist : (string * string) list = []

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then source_files p else [ p ])

let unit_name file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

(* The first offset at or after [i] where [key] occurs in [text]. *)
let rec find_from text key i =
  if i + String.length key > String.length text then None
  else if String.sub text i (String.length key) = key then Some i
  else find_from text key (i + 1)

(* The library a lib/ directory's dune file names, capitalised. *)
let library_name dir =
  let text = read_file (Filename.concat dir "dune") in
  let key = "(name " in
  let start = Option.get (find_from text key 0) + String.length key in
  let stop = String.index_from text start ')' in
  String.capitalize_ascii (String.trim (String.sub text start (stop - start)))

let libraries =
  lazy
    (Sys.readdir "../lib" |> Array.to_list |> List.sort compare
    |> List.map (fun d ->
           let dir = Filename.concat "../lib" d in
           (dir, library_name dir)))

(* Where a unit of [dir] lives: a library's units under its name, any
   other directory's (tests, executables) under the directory itself,
   which no library path can equal. *)
let scope dir =
  match List.assoc_opt dir (Lazy.force libraries) with
  | Some lib -> lib
  | None -> dir

let parse parser file =
  let lexbuf = Lexing.from_string (read_file file) in
  Lexing.set_filename lexbuf file;
  parser lexbuf

(* [(module path, name) -> interface file] for every exported val, and
   every module path an interface declares. *)
let exports = Hashtbl.create 1024
let modules = Hashtbl.create 256

let rec signature_vals file path (sg : Parsetree.signature) =
  Hashtbl.replace modules path ();
  List.iter
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value v -> Hashtbl.replace exports (path, v.pval_name.txt) file
      | Psig_module
          {
            pmd_name = { txt = Some m; _ };
            pmd_type = { pmty_desc = Pmty_signature sg; _ };
            _;
          } ->
          signature_vals file (path @ [ m ]) sg
      | _ -> ())
    sg

let load_exports =
  lazy
    (List.iter
       (fun (dir, lib) ->
         Hashtbl.replace modules [ lib ] ();
         source_files dir
         |> List.filter (fun f -> Filename.check_suffix f ".mli")
         |> List.iter (fun f ->
                signature_vals f [ lib; unit_name f ] (parse Parse.interface f)))
       (Lazy.force libraries))

type binding = Module of string * string list | Open of string list

(* Every export referenced from a unit other than its own. *)
let referenced = Hashtbl.create 1024

let rec is_prefix prefix path =
  match (prefix, path) with
  | [], _ -> true
  | m :: prefix, n :: path -> m = n && is_prefix prefix path
  | _ :: _, [] -> false

let scan ?(on_label = fun ~line:_ _ _ -> ()) file =
  let own = [ scope (Filename.dirname file); unit_name file ] in
  let refer key =
    if Hashtbl.mem exports key && not (is_prefix own (fst key)) then
      Hashtbl.replace referenced key ()
  in
  let whole path =
    Hashtbl.iter
      (fun ((p, _) as key) _ -> if is_prefix path p then refer key)
      exports
  in
  let siblings =
    source_files (Filename.dirname file)
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.map (fun f -> Module (unit_name f, [ List.hd own; unit_name f ]))
  in
  let env =
    ref
      (siblings
      @ List.map (fun (_, lib) -> Module (lib, [ lib ])) (Lazy.force libraries)
      )
  in
  let rec resolve : Longident.t -> string list = function
    | Lident m ->
        let rec lookup = function
          | [] -> [ m ]
          | Module (n, p) :: _ when n = m -> p
          | Open p :: _ when Hashtbl.mem modules (p @ [ m ]) -> p @ [ m ]
          | _ :: rest -> lookup rest
        in
        lookup !env
    | Ldot (l, m) -> resolve l @ [ m ]
    | Lapply _ -> []
  in
  let value : Longident.t -> unit = function
    | Ldot (l, v) -> refer (resolve l, v)
    | Lident v ->
        List.find_map
          (function
            | Open p when Hashtbl.mem exports (p, v) -> Some p | _ -> None)
          !env
        |> Option.iter (fun p -> refer (p, v))
    | Lapply _ -> ()
  in
  let label (lid : Longident.t Location.loc) =
    let line = lid.loc.loc_start.pos_lnum in
    match lid.txt with
    | Lident n -> on_label ~line [] n
    | Ldot (l, n) -> on_label ~line (resolve l) n
    | Lapply _ -> ()
  in
  let alias (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ }
    | Pmod_constraint ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) ->
        Some (resolve txt)
    | _ -> None
  in
  let scoped f =
    let saved = !env in
    f ();
    env := saved
  in
  let open Ast_iterator in
  let bind it name me =
    match alias me with
    | Some p -> env := Module (name, p) :: !env
    | None ->
        it.module_expr it me;
        env := Module (name, [ file; name ]) :: !env
  in
  let opens it (od : Parsetree.open_declaration) =
    match alias od.popen_expr with
    | Some p -> env := Open p :: !env
    | None -> it.module_expr it od.popen_expr
  in
  let it =
    {
      default_iterator with
      structure =
        (fun it items -> scoped (fun () -> List.iter (it.structure_item it) items));
      structure_item =
        (fun it item ->
          match item.pstr_desc with
          | Pstr_open od -> opens it od
          | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
              bind it name pmb_expr
          | _ -> default_iterator.structure_item it item);
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> value txt
          | Pexp_open (od, body) ->
              scoped (fun () ->
                  opens it od;
                  it.expr it body)
          | Pexp_letmodule ({ txt = Some name; _ }, me, body) ->
              scoped (fun () ->
                  bind it name me;
                  it.expr it body)
          | Pexp_field (_, l) ->
              label l;
              default_iterator.expr it e
          | _ -> default_iterator.expr it e);
      pat =
        (fun it p ->
          match p.ppat_desc with
          | Ppat_construct
              (_, Some (_, { ppat_desc = Ppat_record (fields, _); _ })) ->
              (* an inline record's labels belong to its constructor *)
              List.iter (fun (_, p) -> it.pat it p) fields
          | Ppat_record (fields, _) ->
              List.iter (fun (l, _) -> label l) fields;
              default_iterator.pat it p
          | _ -> default_iterator.pat it p);
      module_expr =
        (fun it me ->
          match me.pmod_desc with
          | Pmod_ident { txt; _ } -> whole (resolve txt)
          | _ -> default_iterator.module_expr it me);
    }
  in
  it.structure it (parse Parse.implementation file)

let qualified (path, name) = String.concat "." (path @ [ name ])

let check_exports () =
  Lazy.force load_exports;
  if Hashtbl.length exports = 0 then Alcotest.fail "no lib/ interface found";
  List.concat_map source_files trees
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.iter scan;
  let allowed = List.map fst allowlist in
  let uncalled =
    Hashtbl.fold
      (fun key file acc ->
        if Hashtbl.mem referenced key || List.mem (qualified key) allowed then
          acc
        else Printf.sprintf "%s (%s)" (qualified key) file :: acc)
      exports []
  in
  let stale =
    List.filter_map
      (fun (name, _) ->
        match
          Hashtbl.fold
            (fun key _ acc -> if qualified key = name then Some key else acc)
            exports None
        with
        | None -> Some (name ^ ": no such exported val")
        | Some key when Hashtbl.mem referenced key ->
            Some (name ^ ": has a caller now")
        | Some _ -> None)
      allowlist
  in
  let section title = function
    | [] -> []
    | lines -> Printf.sprintf "%d %s:" (List.length lines) title :: lines
  in
  match
    section "exported values have no caller outside their own unit"
      (List.sort compare uncalled)
    @ section "allowlist entries are stale" stale
  with
  | [] -> ()
  | lines -> Alcotest.fail (String.concat "\n" lines)

(* {1 One cell runner}

   A workload's [run] field is applied in one place in lib/ and bin/:
   [Workloads.Workload.run], which builds the cell's machine around it
   (DESIGN §5b).  Through the export audit's parser and module
   resolution, every projection or record pattern of a [run] label
   whose path resolves to [Workloads.Workload], or that is bare (the
   type-directed form), is a site; any site outside
   lib/workloads/workload.ml is a second runner.  test/, examples/ and
   hostbench/ are exempt. *)

let runner_unit = "../lib/workloads/workload.ml"

let check_one_runner () =
  Lazy.force load_exports;
  let sites = ref [] in
  List.concat_map source_files [ "../lib"; "../bin" ]
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.iter (fun file ->
         scan file ~on_label:(fun ~line path name ->
             if name = "run" && (path = [] || path = [ "Workloads"; "Workload" ])
             then sites := Printf.sprintf "%s:%d" file line :: !sites));
  let home, others =
    List.partition
      (fun site -> String.starts_with ~prefix:(runner_unit ^ ":") site)
      !sites
  in
  if home = [] then
    Alcotest.failf "%s applies no [run] field: the audit matches nothing"
      runner_unit;
  if others <> [] then
    Alcotest.failf
      "a workload's [run] field is applied outside %s (run cells through \
       Workloads.Workload.run):\n%s"
      runner_unit
      (String.concat "\n" (List.sort compare others))

(* {1 Library dependency audit}

   Every entry of a [(libraries ...)] list in a lib/*/dune or bin/dune
   must be used by that directory's sources: some module path in them
   ([Name.v], [open Name], [Name.( ... )], [module X = Name.M], a type
   [Name.t]) starts with the library's top module.  That is the name
   capitalised, except where [top_modules] says otherwise; a dotted
   name it does not list is an error, so a new sub-library gets an
   entry here. *)

let top_modules = [ ("threads.posix", "Thread") ]

let top_module lib =
  match List.assoc_opt lib top_modules with
  | Some m -> Some m
  | None when String.contains lib '.' -> None
  | None -> Some (String.capitalize_ascii lib)

(* The entries of every [(libraries ...)] field of a dune file. *)
let library_deps dune =
  let text = read_file dune and key = "(libraries" in
  let rec from i acc =
    match find_from text key i with
    | None -> List.rev acc
    | Some start ->
        let first = start + String.length key in
        let stop = String.index_from text first ')' in
        let body = String.sub text first (stop - first) in
        if String.contains body '(' then
          Alcotest.failf "%s: a nested form in (libraries ...)" dune;
        let names =
          String.split_on_char ' '
            (String.map (function '\n' | '\t' -> ' ' | c -> c) body)
          |> List.filter (( <> ) "")
        in
        from stop (List.rev_append names acc)
  in
  from 0 []

(* Add the first component of every module path in a source file to
   [roots]. *)
let add_module_roots roots file =
  let rec modpath : Longident.t -> unit = function
    | Lident m -> Hashtbl.replace roots m ()
    | Ldot (l, _) -> modpath l
    | Lapply (a, b) ->
        modpath a;
        modpath b
  in
  let qualified : Longident.t -> unit = function
    | Ldot (l, _) -> modpath l
    | Lident _ -> ()
    | Lapply _ as l -> modpath l
  in
  let lid (l : Longident.t Location.loc) = qualified l.txt in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident l | Pexp_construct (l, _) | Pexp_field (_, l)
          | Pexp_setfield (_, l, _) | Pexp_new l ->
              lid l
          | Pexp_record (fields, _) -> List.iter (fun (l, _) -> lid l) fields
          | _ -> ());
          default_iterator.expr it e);
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_construct (l, _) | Ppat_type l -> lid l
          | Ppat_record (fields, _) -> List.iter (fun (l, _) -> lid l) fields
          | _ -> ());
          default_iterator.pat it p);
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr (l, _) | Ptyp_class (l, _) -> lid l
          | _ -> ());
          default_iterator.typ it t);
      module_expr =
        (fun it me ->
          (match me.pmod_desc with Pmod_ident l -> modpath l.txt | _ -> ());
          default_iterator.module_expr it me);
      module_type =
        (fun it mt ->
          (match mt.pmty_desc with
          | Pmty_ident l | Pmty_alias l -> modpath l.txt
          | _ -> ());
          default_iterator.module_type it mt);
      open_description =
        (fun it od ->
          modpath od.popen_expr.txt;
          default_iterator.open_description it od);
    }
  in
  if Filename.check_suffix file ".mli" then
    it.signature it (parse Parse.interface file)
  else it.structure it (parse Parse.implementation file)

let check_library_deps () =
  let dirs =
    "../bin"
    :: List.map (Filename.concat "../lib")
         (List.sort compare (Array.to_list (Sys.readdir "../lib")))
  in
  let unused =
    List.concat_map
      (fun dir ->
        let roots = Hashtbl.create 64 in
        source_files dir
        |> List.filter (fun f ->
               Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
        |> List.iter (add_module_roots roots);
        library_deps (Filename.concat dir "dune")
        |> List.filter_map (fun lib ->
               match top_module lib with
               | None ->
                   Some
                     (Printf.sprintf "%s/dune: %s has no top module in \
                                      [top_modules]"
                        dir lib)
               | Some m when Hashtbl.mem roots m -> None
               | Some m ->
                   Some
                     (Printf.sprintf "%s/dune: %s (no %s. in %s)" dir lib m
                        dir)))
      dirs
  in
  if unused <> [] then
    Alcotest.failf "%d library entries are not used by their directory:\n%s"
      (List.length unused) (String.concat "\n" unused)

(* [repro experiment ID] prints "## TITLE", a blank line and then the
   body of EXPERIMENTS.md's generated block ID, byte for byte.  Run for
   the sections that read no matrix cell, from the source tree's root
   (Table 1 counts the lines of lib/workloads/). *)
let block_body doc id =
  let start = Printf.sprintf "<!-- generated:%s -->\n" id
  and stop = Printf.sprintf "\n<!-- /generated:%s -->" id in
  let rec find sub from =
    if from + String.length sub > String.length doc then
      Alcotest.failf "EXPERIMENTS.md: no %S" sub
    else if String.sub doc from (String.length sub) = sub then from
    else find sub (from + 1)
  in
  let i = find start 0 + String.length start in
  String.sub doc i (find stop i - i)

let check_section (s : Harness.Docs.section) () =
  let ic =
    Unix.open_process_in
      (Printf.sprintf "cd .. && bin/main.exe experiment %s --no-cache 2>/dev/null"
         s.id)
  in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "experiment %s failed" s.id);
  Alcotest.(check string)
    (s.id ^ " output is its title and its block")
    (Printf.sprintf "## %s\n\n%s\n" s.title
       (block_body (read_file "../EXPERIMENTS.md") s.id))
    out

(* Each section's block sits under the EXPERIMENTS.md heading that is
   its title: the last "## " line before the block's open marker. *)
let check_titles () =
  let lines = String.split_on_char '\n' (read_file "../EXPERIMENTS.md") in
  List.iter
    (fun (s : Harness.Docs.section) ->
      let marker = Printf.sprintf "<!-- generated:%s -->" s.id in
      let rec heading last = function
        | [] -> Alcotest.failf "EXPERIMENTS.md: no %s" marker
        | l :: _ when l = marker -> last
        | l :: rest ->
            heading (if String.starts_with ~prefix:"## " l then l else last) rest
      in
      Alcotest.(check string) (s.id ^ " heading") ("## " ^ s.title)
        (heading "" lines))
    Harness.Docs.sections

let static_sections =
  List.filter
    (fun (s : Harness.Docs.section) ->
      match s.render with `Static _ -> true | `Matrix _ -> false)
    Harness.Docs.sections

let doc_cases f =
  List.map
    (fun path ->
      let name = String.sub path 3 (String.length path - 3) in
      Alcotest.test_case name `Quick (f path))

let () =
  Alcotest.run "docs"
    [
      ( "commands exist",
        doc_cases check_document documents
        @ doc_cases (check_script shell_lines) [ "../.github/workflows/ci.yml" ]
        @ doc_cases (check_script run_actions) [ "../bin/dune" ] );
      ("paths exist", doc_cases check_paths path_documents);
      ( "export audit",
        [ Alcotest.test_case "lib interfaces" `Quick check_exports ] );
      ( "runner audit",
        [ Alcotest.test_case "one cell runner" `Quick check_one_runner ] );
      ( "dependency audit",
        [ Alcotest.test_case "dune libraries" `Quick check_library_deps ] );
      ( "sections",
        Alcotest.test_case "titles are headings" `Quick check_titles
        :: List.map
             (fun (s : Harness.Docs.section) ->
               Alcotest.test_case ("experiment " ^ s.id) `Quick (check_section s))
             static_sections );
    ]
