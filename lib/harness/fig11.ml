open Workloads

(* The per-benchmark safety-cost decomposition: cleanup / stack scan /
   refcount / total overhead, each as a percentage of unsafe-region
   execution time. *)

let rows m =
  List.map
    (fun spec ->
      let safe = Matrix.get m spec Matrix.region_safe in
      let unsafe = Matrix.get m spec Matrix.region_unsafe in
      let base = float_of_int unsafe.Results.cycles in
      let part n = Printf.sprintf "%.1f" (100. *. float_of_int n /. base) in
      let overhead =
        100. *. (float_of_int safe.Results.cycles /. base -. 1.)
      in
      [
        spec.Workload.name;
        part safe.Results.cleanup_instrs;
        part safe.Results.stack_scan_instrs;
        part safe.Results.refcount_instrs;
        Printf.sprintf "%.1f" overhead;
      ])
    Matrix.workloads

let header =
  [ "benchmark"; "cleanup %"; "stack scan %"; "refcount %"; "total overhead %" ]

let render m =
  Printf.sprintf
    "Cost of safety as %% of unsafe-region execution time, decomposed into \
     its three sources, %s inputs:\n\n"
    (Matrix.size_name m)
  ^ Render.md_table ~header (rows m)
  ^ "\n\nPaper: the cost of safety varies from negligible (tile) to 17% (lcc)."
