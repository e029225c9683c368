let md_table ~header rows =
  let row r = "| " ^ String.concat " | " r ^ " |" in
  let sep =
    "|"
    ^ String.concat "|"
        (List.mapi (fun i _ -> if i = 0 then "---" else "---:") header)
    ^ "|"
  in
  String.concat "\n" (row header :: sep :: List.map row rows)

let kb bytes = Printf.sprintf "%.1f" (float_of_int bytes /. 1024.)

let mega n =
  if n >= 10_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1_000_000.)
  else if n >= 10_000 then Printf.sprintf "%.0fk" (float_of_int n /. 1_000.)
  else string_of_int n

let pct f = Printf.sprintf "%.1f%%" (f *. 100.)
