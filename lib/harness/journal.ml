(* FNV-1a over the raw payload, 64-bit, printed in hex.
   Not cryptographic — it only needs to catch torn writes and stray
   editor damage. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  let n = String.length s in
  if n land 1 <> 0 then None
  else
    let b = Bytes.create (n / 2) in
    let ok = ref true in
    (try
       for i = 0 to (n / 2) - 1 do
         Bytes.set b i (Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
       done
     with Failure _ -> ok := false);
    if !ok then Some (Bytes.to_string b) else None

(* A daemon serves arbitrary (workload, mode, size, seed, plan)
   requests, so a journal line carries the whole request key to be
   replayable into the cache on restart — including the build id of
   the binary that measured the cell, because the content-addressed
   cache's invariant is that a rebuild invalidates every entry: a
   recovery that re-stored an old build's measurements under the new
   build would serve stale numbers as warm hits.  Size, plan and
   build id are free-form strings (plans contain ':' and '='; a build
   id is usually an MD5 hex digest but the cache accepts anything), so
   all three travel hex-encoded like the payload, which is the
   versioned [Results.Cell] measurement JSON.  Older tags ("cell3"
   was buildless, "cell1"/"cell2" the retired batch journal's) parse
   as unknown-version damage and degrade to "re-run that cell". *)

type keyed = {
  k_build : string;
  k_workload : string;
  k_mode : string;
  k_size : string;
  k_seed : int;
  k_plan : string;
  k_result : Workloads.Results.t;
}

let line_of_keyed k =
  let payload =
    Results.Json.to_string ~indent:false (Results.Cell.encode_result k.k_result)
  in
  Printf.sprintf "cell4 %s %s %s %s %d %s %d %Lx %s" (to_hex k.k_build)
    k.k_workload k.k_mode
    (to_hex k.k_size) k.k_seed
    (to_hex k.k_plan)
    (String.length payload) (fnv1a payload) (to_hex payload)

let keyed_of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "cell4"; build_h; workload; mode; size_h; seed; plan_h; len; hash; hex ]
    -> (
      match
        ( of_hex build_h,
          of_hex size_h,
          int_of_string_opt seed,
          of_hex plan_h,
          int_of_string_opt len,
          Int64.of_string_opt ("0x" ^ hash),
          of_hex hex )
      with
      | ( Some build,
          Some size,
          Some seed,
          Some plan,
          Some len,
          Some hash,
          Some payload )
        when String.length payload = len && Int64.equal (fnv1a payload) hash
        -> (
          match
            Result.bind (Results.Json.of_string payload)
              Results.Cell.decode_result
          with
          | Ok result ->
              Some
                {
                  k_build = build;
                  k_workload = workload;
                  k_mode = mode;
                  k_size = size;
                  k_seed = seed;
                  k_plan = plan;
                  k_result = result;
                }
          | Error _ -> None)
      | _ -> None)
  | _ -> None

let append_keyed oc k =
  output_string oc (line_of_keyed k);
  output_char oc '\n';
  flush oc;
  (* Durability point: the line is on disk before the cell is reported
     complete, so a crash can lose at most the line being written —
     which the checksum then rejects on recovery. *)
  Unix.fsync (Unix.descr_of_out_channel oc)

let load_keyed path =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let entries = ref [] and skipped = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match keyed_of_line line with
               | Some e -> entries := e :: !entries
               | None -> incr skipped
           done
         with End_of_file -> ());
        (List.rev !entries, !skipped))
  end
