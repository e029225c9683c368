(* Fixed-capacity sample ring with interval doubling, in the flat
   int-array style of [Sampler].  Stride-5 rows:
   events, live_allocs, live_bytes, held_bytes, os_bytes. *)

let stride = 5

type probe = unit -> int * int * int * int

type t = {
  mutable probe : probe;
  mutable interval : int;
  capacity : int;
  rows : int array;
  mutable n : int;  (** samples stored *)
  mutable events : int;  (** allocation-event clock *)
}

let null_probe () = (0, 0, 0, 0)

let create ?(capacity = 4096) () =
  if capacity < 4 then invalid_arg "Obs.Timeline.create: capacity < 4";
  {
    probe = null_probe;
    interval = 1;
    capacity;
    rows = Array.make (capacity * stride) 0;
    n = 0;
    events = 0;
  }

let set_probe t p = t.probe <- p
let interval t = t.interval
let length t = t.n

(* Drop every other sample.  Sample k (1-based) sits at event
   k * interval; keeping the even k leaves multiples of the doubled
   interval, so the ring stays evenly spaced. *)
let compact t =
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    if i land 1 = 1 then begin
      Array.blit t.rows (i * stride) t.rows (!k * stride) stride;
      incr k
    end
  done;
  t.n <- !k;
  t.interval <- t.interval * 2

let sample t =
  if t.n = t.capacity then compact t;
  let live_allocs, live_bytes, held_bytes, os_bytes = t.probe () in
  let o = t.n * stride in
  t.rows.(o) <- t.events;
  t.rows.(o + 1) <- live_allocs;
  t.rows.(o + 2) <- live_bytes;
  t.rows.(o + 3) <- held_bytes;
  t.rows.(o + 4) <- os_bytes;
  t.n <- t.n + 1

let note t =
  t.events <- t.events + 1;
  if t.events mod t.interval = 0 then sample t

let finish t =
  (* Skip the duplicate when [note] just sampled this very event. *)
  if t.n = 0 || t.rows.(((t.n - 1) * stride)) <> t.events then sample t

let iter t f =
  for i = 0 to t.n - 1 do
    let o = i * stride in
    f ~events:t.rows.(o) ~live_allocs:t.rows.(o + 1)
      ~live_bytes:t.rows.(o + 2) ~held_bytes:t.rows.(o + 3)
      ~os_bytes:t.rows.(o + 4)
  done

let to_csv t =
  let b = Buffer.create (t.n * 48) in
  Buffer.add_string b
    "events,live_allocs,live_bytes,held_bytes,os_bytes,internal_frag_bytes,external_frag_bytes,mapped_pages\n";
  iter t (fun ~events ~live_allocs ~live_bytes ~held_bytes ~os_bytes ->
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d\n" events live_allocs
           live_bytes held_bytes os_bytes
           (held_bytes - live_bytes)
           (os_bytes - held_bytes)
           ((os_bytes + 4095) / 4096)));
  Buffer.contents b
