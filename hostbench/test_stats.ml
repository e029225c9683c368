(* The benchmark's own arithmetic and its correctness gate. *)

open Hostbench

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles [ 3.; 1.; 2.; 5. ] in
  Alcotest.check close "q1" 1.25 q1;
  Alcotest.check close "q2" 2.5 q2;
  Alcotest.check close "q3" 4.5 q3;
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  let q1, q2, q3 = Stats.quartiles ten in
  Alcotest.check close "q1 of 1..10" 2.75 q1;
  Alcotest.check close "q2 of 1..10" 5.5 q2;
  Alcotest.check close "q3 of 1..10" 8.25 q3;
  Alcotest.check close "iqr share of 1..10" 1.0 (Stats.iqr_share ten)

let test_percentile () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50" 500. (Stats.percentile a 50.);
  Alcotest.check close "p99" 990. (Stats.percentile a 99.);
  Alcotest.(check int) "ten samples beyond p99 of 1000" 10 (Stats.beyond ~n:1000 99.);
  Alcotest.(check int) "one beyond p99 of 100" 1 (Stats.beyond ~n:100 99.);
  Alcotest.check close "p99 of one sample" 7. (Stats.percentile [| 7. |] 99.)

let test_self_time () =
  (* Children [1,4] and [3,6] overlap, [8,12] sticks out of [0,10]:
     covered = [1,6] + [8,10] = 7. *)
  Alcotest.check close "overlapping children" 3.
    (Stats.self_time ~start:0. ~stop:10. [ (1., 4.); (3., 6.); (8., 12.) ]);
  Alcotest.check close "duplicate children count once" 8.
    (Stats.self_time ~start:0. ~stop:10. [ (2., 4.); (2., 4.) ]);
  Alcotest.check close "no children" 10. (Stats.self_time ~start:0. ~stop:10. [])

let test_layers_sum () =
  let t = Span.create () in
  let nap () = Unix.sleepf 0.005 in
  Span.with_span t ~layer:"bench" "root" (fun () ->
      nap ();
      Span.with_span t ~layer:"a" "x" (fun () ->
          nap ();
          Span.with_span t ~layer:"b" "y" nap);
      Span.with_span t ~layer:"b" "z" nap);
  let root = List.find (fun (s : Span.span) -> s.parent = -1) (Span.spans t) in
  let self = Span.self_by_layer t in
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) self 0. in
  Alcotest.check close "self times sum to the root" (root.stop -. root.start) total;
  Alcotest.(check bool) "every layer has time" true
    (List.for_all (fun l -> Hashtbl.find self l > 0.004) [ "bench"; "a"; "b" ])

let golden = "../results/golden-quick.json"

let perturb store ~workload ~mode f =
  Results.Store.of_list
    (List.map
       (fun (c : Results.Cell.t) ->
         if Results.Cell.workload c = workload && Results.Cell.mode c = mode then
           { c with result = f c.result }
         else c)
       (Results.Store.to_list store))

(* A golden copy with one cell changed makes the gate count exactly that
   cell as failed; replayed cells are only held to allocator-side
   fields. *)
let test_gate () =
  let store = Gate.load_golden ~path:golden () in
  let actual = List.map (fun (c : Results.Cell.t) -> c.result) (Results.Store.to_list store) in
  let failed ?only g = Gate.count_failed (Gate.matches ?only g) actual in
  Alcotest.(check int) "golden against itself" 0 (failed store);
  let alloc =
    perturb store ~workload:"cfrac" ~mode:"sun" (fun r ->
        { r with alloc_instrs = r.alloc_instrs + 1 })
  in
  Alcotest.(check int) "perturbed alloc_instrs" 1 (failed alloc);
  Alcotest.(check int) "perturbed alloc_instrs, allocator side" 1
    (failed ~only:Gate.allocator_side alloc);
  let cycles =
    perturb store ~workload:"cfrac" ~mode:"sun" (fun r -> { r with cycles = r.cycles + 1 })
  in
  Alcotest.(check int) "perturbed cycles" 1 (failed cycles);
  Alcotest.(check int) "perturbed cycles, allocator side" 0
    (failed ~only:Gate.allocator_side cycles)

let () =
  Alcotest.run "hostbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles as Python computes them" `Quick test_quartiles;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "self time with overlapping children" `Quick test_self_time;
          Alcotest.test_case "layer self times cover the root" `Quick test_layers_sum;
        ] );
      ("gate", [ Alcotest.test_case "perturbed golden copy" `Quick test_gate ]);
    ]
