type clause =
  | Page_budget of int
  | Oom_at of int
  | Denial_ramp of { start : float; slope : float }
  | Bit_flip of { every : int; bit : int }

type t = { seed : int; clauses : clause list }

let make ?(seed = 1) clauses =
  List.iter
    (function
      | Page_budget n when n < 0 ->
          Fmt.invalid_arg "Fault.Plan: budget %d must be >= 0" n
      | Oom_at n when n < 1 -> Fmt.invalid_arg "Fault.Plan: oom-at %d must be >= 1" n
      | Denial_ramp { start; slope } when start < 0. || slope < 0. ->
          Fmt.invalid_arg "Fault.Plan: ramp %g:%g must be non-negative" start slope
      | Bit_flip { every; bit } when every < 1 || bit < 0 || bit > 31 ->
          Fmt.invalid_arg "Fault.Plan: flip %d:%d out of range" every bit
      | _ -> ())
    clauses;
  { seed; clauses }

let none ?(seed = 1) () = { seed; clauses = [] }
let seed t = t.seed
let clauses t = t.clauses
let is_empty t = t.clauses = []

let clause_to_string = function
  | Page_budget n -> Fmt.str "budget=%d" n
  | Oom_at n -> Fmt.str "oom-at=%d" n
  | Denial_ramp { start; slope } -> Fmt.str "ramp=%g:%g" start slope
  | Bit_flip { every; bit } -> Fmt.str "flip=%d:%d" every bit

let to_string t =
  if t.clauses = [] then "none"
  else String.concat "," (List.map clause_to_string t.clauses)

let clause_of_string s =
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Fmt.str "%s: %S is not an integer" name v)
  in
  let float_arg name v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Fmt.str "%s: %S is not a number" name v)
  in
  let ( let* ) = Result.bind in
  match String.index_opt s '=' with
  | None ->
      Error
        (Fmt.str "clause %S: expected key=value (budget=, oom-at=, ramp=, flip=)" s)
  | Some i -> (
      let key = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      let pair of_arg make =
        match String.split_on_char ':' v with
        | [ a; b ] ->
            let* a = of_arg key a in
            let* b = of_arg key b in
            make a b
        | _ -> Error (Fmt.str "%s: expected %s=A:B, got %S" key key v)
      in
      match key with
      | "budget" ->
          let* n = int_arg key v in
          if n < 0 then Error "budget must be >= 0" else Ok (Page_budget n)
      | "oom-at" ->
          let* n = int_arg key v in
          if n < 1 then Error "oom-at must be >= 1" else Ok (Oom_at n)
      | "ramp" ->
          pair float_arg (fun start slope ->
              if start < 0. || slope < 0. then
                Error "ramp start and slope must be non-negative"
              else Ok (Denial_ramp { start; slope }))
      | "flip" ->
          pair int_arg (fun every bit ->
              if every < 1 then Error "flip period must be >= 1"
              else if bit < 0 || bit > 31 then Error "flip bit must be in 0..31"
              else Ok (Bit_flip { every; bit }))
      | _ -> Error (Fmt.str "unknown clause %S (have: budget, oom-at, ramp, flip)" key))

let of_string ?(seed = 1) s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok { seed; clauses = [] }
  else
    let rec go acc = function
      | [] -> Ok { seed; clauses = List.rev acc }
      | c :: rest -> (
          match clause_of_string (String.trim c) with
          | Ok cl -> go (cl :: acc) rest
          | Error _ as e -> e)
    in
    go [] (String.split_on_char ',' s)

type flip = { u : float; bit : int }
type decision = { deny : bool; flips : flip list }

(* Per-event generator: a fresh splitmix64 stream keyed by (seed,
   event), so [decision] is a pure function of its arguments — no
   hidden stream position to keep in sync across processes or call
   orders.  Draws happen in clause order, which is part of the plan. *)
let event_rng t event =
  Sim.Rng.create ((t.seed * 0x9E3779B1) lxor (event * 0x85EBCA77) lxor 0x2545F491)

let decision t ~event ~pages ~pages_before =
  if event < 1 then invalid_arg "Fault.Plan.decision: event must be >= 1";
  if pages < 0 || pages_before < 0 then
    invalid_arg "Fault.Plan.decision: negative page count";
  let rng = event_rng t event in
  List.fold_left
    (fun d clause ->
      match clause with
      | Page_budget budget ->
          { d with deny = d.deny || pages_before + pages > budget }
      | Oom_at n -> { d with deny = d.deny || event = n }
      | Denial_ramp { start; slope } ->
          let p = Float.min 1.0 (start +. (slope *. float_of_int event)) in
          let u = Sim.Rng.float rng 1.0 in
          { d with deny = d.deny || u < p }
      | Bit_flip { every; bit } ->
          if event mod every = 0 then
            { d with flips = d.flips @ [ { u = Sim.Rng.float rng 1.0; bit } ] }
          else d)
    { deny = false; flips = [] }
    t.clauses
