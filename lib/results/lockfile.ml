type t = { fd : Unix.file_descr; mutable held : bool }
type error = Held of string | Unusable of string

let error_message (Held msg | Unusable msg) = msg

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let holder_of fd =
  (* Best-effort: read whatever the current holder wrote.  The read
     races the holder's write only in the instant between its lockf
     and its ftruncate+write; an empty result degrades the message,
     not the exclusion. *)
  match
    let len = (Unix.fstat fd).Unix.st_size in
    if len = 0 then ""
    else begin
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      let b = Bytes.create (min len 256) in
      let n = Unix.read fd b 0 (Bytes.length b) in
      String.trim (Bytes.sub_string b 0 n)
    end
  with
  | s -> s
  | exception Unix.Unix_error _ -> ""

let acquire ?owner lpath =
  let owner =
    match owner with
    | Some o -> o
    | None -> Filename.basename Sys.executable_name
  in
  mkdir_p (Filename.dirname lpath);
  match Unix.openfile lpath [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Unusable
           (Printf.sprintf "cannot open lock file %s: %s" lpath
              (Unix.error_message e)))
  | fd -> (
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () ->
          (* Ours: record who holds it, for the next acquirer's error. *)
          let line = Printf.sprintf "%s pid %d\n" owner (Unix.getpid ()) in
          (try
             Unix.ftruncate fd 0;
             ignore (Unix.lseek fd 0 Unix.SEEK_SET);
             ignore (Unix.write_substring fd line 0 (String.length line))
           with Unix.Unix_error _ -> ());
          Ok { fd; held = true }
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
          let holder = holder_of fd in
          Unix.close fd;
          Error
            (Held
               (Printf.sprintf "%s is locked by %s" lpath
                  (if holder = "" then "another process" else holder)))
      | exception Unix.Unix_error (e, _, _) ->
          Unix.close fd;
          Error
            (Unusable
               (Printf.sprintf "cannot lock %s: %s" lpath
                  (Unix.error_message e))))

let release t =
  if t.held then begin
    t.held <- false;
    (* Closing the fd drops the POSIX record lock. *)
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
