type probe = {
  base_instrs : int;
  mem_instrs : int;
  read_stalls : int;
  write_stalls : int;
  live_bytes : int;
  os_bytes : int;
  l1_hits : int;
  l1_misses : int;
  l2_misses : int;
  stores : int;
}

let zero_probe =
  {
    base_instrs = 0;
    mem_instrs = 0;
    read_stalls = 0;
    write_stalls = 0;
    live_bytes = 0;
    os_bytes = 0;
    l1_hits = 0;
    l1_misses = 0;
    l2_misses = 0;
    stores = 0;
  }

let sub a b =
  {
    base_instrs = a.base_instrs - b.base_instrs;
    mem_instrs = a.mem_instrs - b.mem_instrs;
    read_stalls = a.read_stalls - b.read_stalls;
    write_stalls = a.write_stalls - b.write_stalls;
    live_bytes = a.live_bytes - b.live_bytes;
    os_bytes = a.os_bytes - b.os_bytes;
    l1_hits = a.l1_hits - b.l1_hits;
    l1_misses = a.l1_misses - b.l1_misses;
    l2_misses = a.l2_misses - b.l2_misses;
    stores = a.stores - b.stores;
  }

(* Row layout: cycles followed by the ten probe fields. *)
let stride = 11

type t = {
  interval : int;
  mutable next : int;  (* first cycle at which a sample is due *)
  mutable buf : int array;
  mutable n : int;  (* samples recorded *)
}

let create ?(interval = 50_000) () =
  if interval <= 0 then invalid_arg "Obs.Sampler.create: interval must be positive";
  { interval; next = 0; buf = Array.make (64 * stride) 0; n = 0 }

let length t = t.n
let due t ~now = now >= t.next

let store t ~now p =
  if t.n * stride >= Array.length t.buf then begin
    let bigger = Array.make (Array.length t.buf * 2) 0 in
    Array.blit t.buf 0 bigger 0 (Array.length t.buf);
    t.buf <- bigger
  end;
  let o = t.n * stride in
  t.buf.(o) <- now;
  t.buf.(o + 1) <- p.base_instrs;
  t.buf.(o + 2) <- p.mem_instrs;
  t.buf.(o + 3) <- p.read_stalls;
  t.buf.(o + 4) <- p.write_stalls;
  t.buf.(o + 5) <- p.live_bytes;
  t.buf.(o + 6) <- p.os_bytes;
  t.buf.(o + 7) <- p.l1_hits;
  t.buf.(o + 8) <- p.l1_misses;
  t.buf.(o + 9) <- p.l2_misses;
  t.buf.(o + 10) <- p.stores;
  t.n <- t.n + 1

let record t ~now p =
  if now >= t.next then begin
    store t ~now p;
    (* Skip intervals nothing was observed in: the next sample is due
       at the first interval boundary strictly after [now]. *)
    t.next <- ((now / t.interval) + 1) * t.interval
  end

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Obs.Sampler.get";
  let o = i * stride in
  ( t.buf.(o),
    {
      base_instrs = t.buf.(o + 1);
      mem_instrs = t.buf.(o + 2);
      read_stalls = t.buf.(o + 3);
      write_stalls = t.buf.(o + 4);
      live_bytes = t.buf.(o + 5);
      os_bytes = t.buf.(o + 6);
      l1_hits = t.buf.(o + 7);
      l1_misses = t.buf.(o + 8);
      l2_misses = t.buf.(o + 9);
      stores = t.buf.(o + 10);
    } )

(* The closing sample: the series must always end on the final counter
   values so interval deltas sum to the run's totals.  When the last
   sample already sits at [now] but the counters advanced since (work
   at a standing clock), overwrite it instead of duplicating the
   cycle. *)
let finish t ~now p =
  if t.n = 0 || fst (get t (t.n - 1)) < now then store t ~now p
  else if snd (get t (t.n - 1)) <> p then begin
    t.n <- t.n - 1;
    store t ~now p
  end;
  t.next <- max t.next (((now / t.interval) + 1) * t.interval)

let iter t f =
  for i = 0 to t.n - 1 do
    let now, p = get t i in
    f ~cycles:now p
  done
