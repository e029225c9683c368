type counts = { mutable bytes : int; mutable allocs : int }

type t = {
  mutable total : int;
  mutable live : int;
  mutable max_live : int;
  mutable max_bytes : int;
  mutable all_bytes : int;
  mutable all_allocs : int;
}

let create () =
  {
    total = 0;
    live = 0;
    max_live = 0;
    max_bytes = 0;
    all_bytes = 0;
    all_allocs = 0;
  }

let on_new t =
  t.total <- t.total + 1;
  t.live <- t.live + 1;
  if t.live > t.max_live then t.max_live <- t.live;
  { bytes = 0; allocs = 0 }

let on_alloc t c bytes =
  c.bytes <- c.bytes + bytes;
  c.allocs <- c.allocs + 1;
  if c.bytes > t.max_bytes then t.max_bytes <- c.bytes;
  t.all_bytes <- t.all_bytes + bytes;
  t.all_allocs <- t.all_allocs + 1

let on_delete t = t.live <- t.live - 1

let total_regions t = t.total
let live_regions t = t.live
let max_live_regions t = t.max_live
let max_region_bytes t = t.max_bytes

let avg_region_bytes t =
  if t.total = 0 then 0.0 else float_of_int t.all_bytes /. float_of_int t.total

let avg_allocs_per_region t =
  if t.total = 0 then 0.0 else float_of_int t.all_allocs /. float_of_int t.total
