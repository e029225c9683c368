let magic = "OBSTRACE1\n"
let record_bytes = 40

let sink oc : Tracer.sink =
  output_string oc magic;
  let scratch = Bytes.create record_bytes in
  fun ~kind ~time ~site ~a ~b ->
    Bytes.set_int64_le scratch 0 (Int64.of_int kind);
    Bytes.set_int64_le scratch 8 (Int64.of_int time);
    Bytes.set_int64_le scratch 16 (Int64.of_int site);
    Bytes.set_int64_le scratch 24 (Int64.of_int a);
    Bytes.set_int64_le scratch 32 (Int64.of_int b);
    output_bytes oc scratch

let read_file path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let head = really_input_string ic (String.length magic) in
  if head <> magic then failwith "Obs.Spill: not a spill file (bad magic)";
  let scratch = Bytes.create record_bytes in
  let eof = ref false in
  while not !eof do
    match really_input ic scratch 0 record_bytes with
    | () ->
        let g o = Int64.to_int (Bytes.get_int64_le scratch o) in
        f ~kind:(g 0) ~time:(g 8) ~site:(g 16) ~a:(g 24) ~b:(g 32)
    | exception End_of_file -> eof := true
  done
