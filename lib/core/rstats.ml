type info = { mutable bytes : int; mutable allocs : int }

type t = {
  mutable total : int;
  mutable live : int;
  mutable max_live : int;
  mutable max_bytes : int;
  mutable all_bytes : int;
  mutable all_allocs : int;
  per_region : info Alloc.Int_table.t;
}

let create () =
  {
    total = 0;
    live = 0;
    max_live = 0;
    max_bytes = 0;
    all_bytes = 0;
    all_allocs = 0;
    per_region = Alloc.Int_table.create 64;
  }

let on_new t r =
  t.total <- t.total + 1;
  t.live <- t.live + 1;
  if t.live > t.max_live then t.max_live <- t.live;
  Alloc.Int_table.replace t.per_region r { bytes = 0; allocs = 0 }

(* [find], not [find_opt]: a hit allocates no option. *)
let on_alloc t r bytes =
  match Alloc.Int_table.find t.per_region r with
  | exception Not_found -> ()
  | info ->
      info.bytes <- info.bytes + bytes;
      info.allocs <- info.allocs + 1;
      if info.bytes > t.max_bytes then t.max_bytes <- info.bytes;
      t.all_bytes <- t.all_bytes + bytes;
      t.all_allocs <- t.all_allocs + 1

let on_delete t r =
  match Alloc.Int_table.find_opt t.per_region r with
  | None -> ()
  | Some _ ->
      Alloc.Int_table.remove t.per_region r;
      t.live <- t.live - 1

let total_regions t = t.total
let live_regions t = t.live
let max_live_regions t = t.max_live
let max_region_bytes t = t.max_bytes

let avg_region_bytes t =
  if t.total = 0 then 0.0 else float_of_int t.all_bytes /. float_of_int t.total

let avg_allocs_per_region t =
  if t.total = 0 then 0.0 else float_of_int t.all_allocs /. float_of_int t.total
