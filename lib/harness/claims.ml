open Workloads

(* A claim's pass condition as data: [value], the quantity that decides
   it, compared with [bound].  The margin is how far [value] sits on
   the passing side of [bound] (negative when the claim fails); [show]
   prints a bound or margin in the quantity's unit. *)
type test = At_most | At_least | Below

type claim = {
  text : string;
  measured : string;
  quantity : string;
  value : float;
  test : test;
  bound : float;
  show : float -> string;
}

let passes c =
  match c.test with
  | At_most -> c.value <= c.bound
  | At_least -> c.value >= c.bound
  | Below -> c.value < c.bound

let pass_if c =
  let op, margin =
    match c.test with
    | At_most -> ("<=", c.bound -. c.value)
    | At_least -> (">=", c.value -. c.bound)
    | Below -> ("<", c.bound -. c.value)
  in
  Printf.sprintf "%s %s %s (margin %s)" c.quantity op (c.show c.bound)
    (c.show margin)

let percent = Printf.sprintf "%.0f%%"
let count = Printf.sprintf "%.0f"
let worst = List.fold_left (fun a (_, d) -> max a d) neg_infinity

let per_benchmark ds =
  String.concat "  " (List.map (fun (n, d) -> Printf.sprintf "%s %+.0f%%" n d) ds)

(* The claims in the report's order; the numbers they share with
   Figures 8-10 come from those figures' extractors. *)
let claims m =
  let os spec mode = (Matrix.get m spec mode).Results.os_bytes in
  let headlines = Fig9.headlines m in

  (* 1. "regions are competitive with malloc/free and sometimes
        substantially faster" / unsafe "never slower, up to 16% faster" *)
  let unsafe_vs_best = List.map (fun (n, (_, u, _)) -> (n, u)) headlines in
  let slower = List.filter (fun (_, d) -> d > 10.) unsafe_vs_best in
  let c1 =
    {
      text = "Unsafe regions are the fastest manager on (nearly) every benchmark.";
      measured =
        (per_benchmark unsafe_vs_best
        ^
        match slower with
        | [ (n, _) ] -> Printf.sprintf "  (known deviation: %s, see EXPERIMENTS.md)" n
        | _ -> "");
      quantity = "benchmarks over +10%";
      value = float_of_int (List.length slower);
      test = At_most;
      bound = 1.;
      show = count;
    }
  in

  (* 2. cost of safety *)
  let overheads = List.map (fun (n, (_, _, s)) -> (n, s)) headlines in
  let c2 =
    {
      text = "The cost of safety ranges from negligible to moderate (paper: <= 17%).";
      measured = per_benchmark overheads;
      quantity = "worst overhead";
      value = worst overheads;
      test = At_most;
      bound = 25.;
      show = percent;
    }
  in

  (* 3. memory: the paper's claim is "from 9% less to 19% more memory
        than Doug Lea's allocator" *)
  let vs_lea = Fig8.vs_lea m in
  let c3 =
    {
      text = "Regions use from less memory to at most 19% more than Lea (paper's band).";
      measured = per_benchmark vs_lea;
      quantity = "worst vs Lea";
      value = worst vs_lea;
      test = At_most;
      bound = 19.;
      show = percent;
    }
  in

  (* 4. GC memory hungry *)
  let gc_worst =
    List.filter
      (fun spec ->
        let modes = Matrix.malloc_modes spec in
        let gc = List.find (fun mo -> Matrix.mode_label mo = "GC") modes in
        List.for_all (fun mo -> os spec mo <= os spec gc) modes)
      Matrix.workloads
  in
  let c4 =
    {
      text = "The conservative collector uses the most memory on most benchmarks.";
      measured =
        Printf.sprintf "GC is the most expensive malloc-side manager on %d of %d"
          (List.length gc_worst)
          (List.length Matrix.workloads);
      quantity = "benchmarks where GC is worst";
      value = float_of_int (List.length gc_worst);
      test = At_least;
      bound = float_of_int (List.length Matrix.workloads) /. 2.;
      show = count;
    }
  in

  (* 5. moss locality *)
  let speedup = Fig9.moss_speedup m in
  let c5 =
    {
      text = "Two regions for moss's small/large objects give a large speedup (paper: 24%).";
      measured = Printf.sprintf "measured %.0f%% faster" speedup;
      quantity = "speedup";
      value = speedup;
      test = At_least;
      bound = 10.;
      show = percent;
    }
  in

  (* 6. BSD stalls *)
  let stalls = Fig10.moss_stalls m in
  let c6 =
    {
      text = "BSD (size-segregated) has fewer stalls than the other explicit allocators on moss.";
      measured =
        Printf.sprintf "BSD %s vs Sun %s vs Lea %s stall cycles"
          (Render.mega (stalls "BSD"))
          (Render.mega (stalls "Sun"))
          (Render.mega (stalls "Lea"));
      quantity = "BSD stalls";
      value = float_of_int (stalls "BSD");
      test = Below;
      bound = float_of_int (min (stalls "Sun") (stalls "Lea"));
      show = (fun c -> Render.mega (int_of_float c));
    }
  in
  [ c1; c2; c3; c4; c5; c6 ]

let render m =
  let header = [ "verdict"; "claim"; "measured"; "pass if" ] in
  let rows =
    List.map
      (fun c ->
        [
          (if passes c then "PASS" else "DEVIATION");
          c.text;
          c.measured;
          pass_if c;
        ])
      (claims m)
  in
  Printf.sprintf
    "Headline claims of the paper, checked against this run (%s inputs):\n\n"
    (Matrix.size_name m)
  ^ Render.md_table ~header rows
