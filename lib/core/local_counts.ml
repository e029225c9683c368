type t = { counts : int array; mutable deleted : bool }

let create ~nprocs =
  if nprocs <= 0 then invalid_arg "Local_counts.create";
  { counts = Array.make nprocs 0; deleted = false }


let check_alive t op =
  if t.deleted then invalid_arg ("Local_counts." ^ op ^ ": already deleted")

let check_proc t proc =
  if proc < 0 || proc >= Array.length t.counts then
    invalid_arg "Local_counts: bad process id"

let acquire t ~proc =
  check_alive t "acquire";
  check_proc t proc;
  t.counts.(proc) <- t.counts.(proc) + 1

let release t ~proc =
  check_alive t "release";
  check_proc t proc;
  t.counts.(proc) <- t.counts.(proc) - 1

let transfer t ~from_proc ~to_proc =
  check_alive t "transfer";
  check_proc t from_proc;
  check_proc t to_proc;
  t.counts.(from_proc) <- t.counts.(from_proc) - 1;
  t.counts.(to_proc) <- t.counts.(to_proc) + 1

let local t ~proc =
  check_proc t proc;
  t.counts.(proc)

let sum t = Array.fold_left ( + ) 0 t.counts
let deletable t = (not t.deleted) && sum t = 0

let try_delete t =
  if deletable t then begin
    t.deleted <- true;
    true
  end
  else false

let deleted t = t.deleted
