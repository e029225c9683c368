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

(* The length is checked before any record is delivered: a file cut
   inside the magic or inside a record fails closed, naming the byte
   offset where the damage starts. *)
let read_file path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let len = in_channel_length ic and m = String.length magic in
  if len < m then
    Printf.ksprintf failwith
      "Obs.Spill: %s: ends at byte %d, inside the %d-byte magic" path len m;
  if really_input_string ic m <> magic then
    failwith "Obs.Spill: not a spill file (bad magic)";
  let torn = (len - m) mod record_bytes in
  if torn <> 0 then
    Printf.ksprintf failwith
      "Obs.Spill: %s: torn record at byte %d (%d of %d bytes)" path
      (len - torn) torn record_bytes;
  let scratch = Bytes.create record_bytes in
  for _ = 1 to (len - m) / record_bytes do
    really_input ic scratch 0 record_bytes;
    let g o = Int64.to_int (Bytes.get_int64_le scratch o) in
    f ~kind:(g 0) ~time:(g 8) ~site:(g 16) ~a:(g 24) ~b:(g 32)
  done
