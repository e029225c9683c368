type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64: fast, high-quality, and trivially reproducible. *)
let next t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let bool t = Int64.logand (next t) 1L = 1L

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 *. bound

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))
