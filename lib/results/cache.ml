(* Content-addressed cell cache, which also holds generated traces.

   A cell's address is everything that determines its measurements:
   the producing executable (build id), the workload, the mode, the
   input size, the fault seed and the fault plan.  The simulation is
   deterministic in exactly those inputs, so a cache hit *is* the
   measurement — re-running could only reproduce the same bytes.  Any
   change to the code invalidates every entry automatically because
   the build id changes; stale entries are never wrong, only unused. *)

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let env_dir = "REPRO_CACHE_DIR"
let default_dir () =
  match Sys.getenv_opt env_dir with
  | Some d when d <> "" -> d
  | _ -> ".repro-cache"

(* The executable digest is the build id: any rebuild that changes a
   single instruction changes it.  Memoised per process (MD5 of the
   binary, a few ms) — as an atomic, not a lazy, because cells record
   their provenance from arbitrary domains and racy forcing of a lazy
   raises in OCaml 5.  The race here is benign: both sides compute the
   same digest. *)
let self_build_id = Atomic.make None

let current_build_id () =
  match Atomic.get self_build_id with
  | Some id -> id
  | None ->
      let id =
        try Digest.to_hex (Digest.file Sys.executable_name)
        with Sys_error _ -> "unknown-build"
      in
      Atomic.set self_build_id (Some id);
      id

type t = { dir : string; build_id : string }

let create ?dir ?build_id () =
  {
    dir = (match dir with Some d -> d | None -> default_dir ());
    build_id = (match build_id with Some b -> b | None -> current_build_id ());
  }

let dir t = t.dir
let build_id t = t.build_id

let key t ~workload ~mode ~size ~seed ~plan =
  fnv1a64
    (Printf.sprintf "cell-v%d|%s|%s|%s|%s|%d|%s" Cell.schema_version
       t.build_id workload mode size seed plan)

let path t k = Filename.concat t.dir (k ^ ".json")

(* Generated (synthetic) traces are fully determined by the generator
   spec — no workload execution — so their address deliberately omits
   the build id: a rebuild must not force multi-minute regeneration of
   multi-GB artefacts.  The [gen] component is bumped whenever the
   generator's output changes (it encodes the trace format version). *)
let gen_trace_path t ~gen ~spec =
  Filename.concat t.dir
    (fnv1a64 (Printf.sprintf "gentrace-%s|%s" gen spec) ^ ".trace")

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let writable t =
  mkdir_p t.dir;
  match Unix.access t.dir [ Unix.W_OK; Unix.X_OK ] with
  | () -> Sys.is_directory t.dir
  | exception Unix.Unix_error _ -> false

let find t ~workload ~mode ~size ~seed ~plan =
  let p = path t (key t ~workload ~mode ~size ~seed ~plan) in
  if not (Sys.file_exists p) then None
  else
    match
      let ic = open_in_bin p in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error _ -> None
    | s -> (
        match Cell.of_string s with
        | Error _ -> None  (* damaged or older schema: treat as a miss *)
        | Ok c ->
            (* Guard against an FNV collision or a hand-copied file:
               the stored identity must match what was asked for. *)
            if
              Cell.workload c = workload
              && Cell.mode c = mode
              && c.Cell.size = size
              && c.Cell.prov.Cell.seed = seed
              && c.Cell.prov.Cell.plan = plan
              && c.Cell.prov.Cell.build_id = t.build_id
            then begin
              (* LRU clock for {!sweep}: a hit refreshes the entry's
                 mtime, so hot cells survive a size-capped eviction
                 pass even when they were written long ago. *)
              (try Unix.utimes p 0. 0. with Unix.Unix_error _ -> ());
              Some c
            end
            else None)

(* Write [s] to a fresh [path] and fsync it; the fd is closed on every
   path, and any failure is re-raised to the caller. *)
let write_durably path s =
  let fd =
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  match
    let n = String.length s in
    let rec go off =
      if off < n then go (off + Unix.write_substring fd s off (n - off))
    in
    go 0;
    Unix.fsync fd
  with
  | () -> Unix.close fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

(* A rename is durable only once its directory entry is: fsync the
   directory too.  Best effort, like every other cache IO. *)
let fsync_dir d =
  match Unix.openfile d [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let store t (c : Cell.t) =
  mkdir_p t.dir;
  let k =
    key t ~workload:(Cell.workload c) ~mode:(Cell.mode c) ~size:c.Cell.size
      ~seed:c.Cell.prov.Cell.seed ~plan:c.Cell.prov.Cell.plan
  in
  let final = path t k in
  (* Unique temp name per writer (process and domain: an abandoned
     watchdog attempt and its retry can store the same cell at once),
     so concurrent writers never interleave; rename is atomic, last
     writer wins (they wrote the same bytes anyway — the address
     determines the content).  The data is fsync'd before the rename
     and the directory after it, so an entry that exists after a crash
     is complete: a killed batch run resumes from exactly the cells it
     stored. *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
      (Domain.self () :> int)
  in
  let s = Cell.to_string c in
  match
    write_durably tmp s;
    Unix.rename tmp final
  with
  | () -> fsync_dir t.dir
  | exception Unix.Unix_error _ ->
      (* unwritable cache is a soft failure: no temp file is left
         behind, and the entry is simply a later miss *)
      (try Sys.remove tmp with Sys_error _ -> ())

(* ---- size-capped LRU eviction ------------------------------------- *)

(* An entry eligible for eviction: cells and generated traces, but
   never lock files or another writer's in-flight temp file (whose
   rename must stay atomic). *)
let evictable name =
  (Filename.check_suffix name ".json" || Filename.check_suffix name ".trace")
  && not
       (String.length (Filename.extension name) > 0
       && String.length name > 4
       && (let rec has_tmp i =
             i + 4 <= String.length name
             && (String.sub name i 4 = ".tmp" || has_tmp (i + 1))
           in
           has_tmp 0))

let sweep t ~max_bytes =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> 0
  | names ->
      let entries =
        Array.to_list names
        |> List.filter_map (fun name ->
               if not (evictable name) then None
               else
                 let p = Filename.concat t.dir name in
                 match Unix.stat p with
                 | exception Unix.Unix_error _ -> None
                 | st when st.Unix.st_kind = Unix.S_REG ->
                     Some (p, st.Unix.st_mtime, st.Unix.st_size)
                 | _ -> None)
      in
      let total =
        List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries
      in
      if total <= max_bytes then 0
      else begin
        (* Oldest mtime first; the path tie-breaks so a sweep is
           deterministic when a filesystem's clock is coarse. *)
        let by_age =
          List.sort
            (fun (pa, ma, _) (pb, mb, _) -> compare (ma, pa) (mb, pb))
            entries
        in
        let rec evict remaining evicted = function
          | [] -> evicted
          | _ when remaining <= max_bytes -> evicted
          | (p, _, sz) :: rest -> (
              (* [Sys.remove] of one whole entry file is atomic: a
                 concurrent reader either opened the entry before the
                 unlink (and keeps reading a consistent snapshot) or
                 misses and recomputes. *)
              match Sys.remove p with
              | () -> evict (remaining - sz) (evicted + 1) rest
              | exception Sys_error _ -> evict remaining evicted rest)
        in
        evict total 0 by_age
      end
