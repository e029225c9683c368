let region_keywords =
  [
    "newregion"; "deleteregion"; "ralloc"; "rstralloc"; "rarrayalloc";
    "set_local_ptr"; "store_ptr"; "region_storage"; "Cleanup.layout";
  ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let count_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let total = ref 0 and changed = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr total;
           if List.exists (contains line) region_keywords then incr changed
         done
       with End_of_file -> close_in ic);
      Some (!total, !changed)

let header =
  [ "benchmark"; "paper lines"; "paper changed"; "our lines"; "our region lines" ]

let rows () =
  let names = [ "cfrac"; "grobner"; "mudlle"; "lcc"; "tile"; "moss" ] in
  List.map
    (fun name ->
      let ours = count_file (Filename.concat "lib/workloads" (name ^ ".ml")) in
      let paper =
        List.find_opt (fun r -> r.Paper.t1_name = name) Paper.table1
      in
      let str_opt f = function Some v -> f v | None -> "-" in
      [
        name;
        str_opt string_of_int (Option.bind paper (fun r -> r.Paper.t1_lines));
        str_opt string_of_int (Option.bind paper (fun r -> r.Paper.t1_changed));
        str_opt (fun (t, _) -> string_of_int t) ours;
        str_opt (fun (_, c) -> string_of_int c) ours;
      ])
    names

let render () =
  "Porting complexity — the paper's changed-line counts for the C ports \
   next to this repository's region-plumbing line counts:\n\n"
  ^ Render.md_table ~header (rows ())
