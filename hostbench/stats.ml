(* Order statistics and span arithmetic for the host-time benchmark. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted_array xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The three cut points of Python's [statistics.quantiles(xs, n=4)]
   (its default "exclusive" method), so the spreads this benchmark
   reports about itself are the ones an external checker computes from
   the same values. *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)

(* Interquartile range as a share of the median. *)
let iqr_share xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* Nearest-rank percentile of a sorted array: the smallest sample with
   at least [p]% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the nearest-rank [p]th percentile of [n]
   samples: a tail percentile is only trustworthy with ten or more. *)
let beyond ~n p =
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  n - max 1 (min n rank)

(* Self time of a span over [start, stop): its length minus the part of
   it that its children cover.  Children may overlap each other or
   stick out of the parent; each instant is subtracted at most once. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = Float.max s start and e = Float.min e stop in
        if e > s then Some (s, e) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (s, e) ->
        match cur with
        | None -> (acc, Some (s, e))
        | Some (cs, ce) when s <= ce -> (acc, Some (cs, Float.max ce e))
        | Some (cs, ce) -> (acc +. (ce -. cs), Some (s, e)))
      (0., None) clipped
  in
  let covered =
    match last with None -> covered | Some (s, e) -> covered +. (e -. s)
  in
  Float.max 0. (stop -. start -. covered)
