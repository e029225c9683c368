open Workloads

(* The per-benchmark headline ratios (safe and unsafe regions vs the
   best of the four malloc/GC columns, and the cost of safety) and the
   moss locality speedup, which the claims check reads too. *)

let headline m spec =
  let cycles mode = (Matrix.get m spec mode).Results.cycles in
  let best_malloc =
    List.fold_left
      (fun acc mode -> min acc (cycles mode))
      max_int (Matrix.malloc_modes spec)
  in
  let safe = cycles Matrix.region_safe
  and unsafe = cycles Matrix.region_unsafe in
  let pct a b = 100. *. (float_of_int a /. float_of_int b -. 1.) in
  (pct safe best_malloc, pct unsafe best_malloc, pct safe unsafe)

let headlines m =
  List.map (fun spec -> (spec.Workload.name, headline m spec)) Matrix.workloads

let moss_speedup m =
  let moss_reg = Matrix.get m (Workload.find "moss") Matrix.region_safe in
  let moss_slow = Matrix.moss_slow_result m in
  100.
  *. (1.
     -. float_of_int moss_reg.Results.cycles
        /. float_of_int moss_slow.Results.cycles)

let columns m spec =
  let modes =
    Matrix.malloc_modes spec @ [ Matrix.region_safe; Matrix.region_unsafe ]
  in
  let cols =
    List.map (fun mode -> (Matrix.mode_label mode, Matrix.get m spec mode)) modes
  in
  if spec.Workload.name = "moss" then
    cols @ [ ("Slow", Matrix.moss_slow_result m) ]
  else cols

let column_table m ~what cell =
  let labels = [ "Sun"; "BSD"; "Lea"; "GC"; "Reg"; "Unsafe" ] in
  let header = "benchmark" :: List.map (fun l -> l ^ " " ^ what) labels in
  let rows =
    List.concat_map
      (fun spec ->
        let cols = columns m spec in
        let row =
          spec.Workload.name :: List.map (fun l -> cell (List.assoc l cols)) labels
        in
        match List.assoc_opt "Slow" cols with
        | None -> [ row ]
        | Some slow ->
            [
              row;
              "  Slow (one region)"
              :: List.map (fun l -> if l = "Reg" then cell slow else "") labels;
            ])
      Matrix.workloads
  in
  Render.md_table ~header rows

(* Cycles, and the share of the instructions spent in memory
   management (allocation, reference counting, scans). *)
let cycles_and_share (r : Results.t) =
  let mem = Results.memory_instrs r in
  Printf.sprintf "%s (%s)" (Render.mega r.Results.cycles)
    (Render.pct
       (float_of_int mem /. float_of_int (r.Results.base_instrs + mem)))

let render m =
  let header =
    [ "benchmark"; "safe vs best other"; "unsafe vs best other"; "cost of safety" ]
  in
  let rows =
    List.map
      (fun (name, (safe_pct, unsafe_pct, safety_pct)) ->
        [
          name;
          Printf.sprintf "%+.1f%%" safe_pct;
          Printf.sprintf "%+.1f%%" unsafe_pct;
          Printf.sprintf "%+.1f%%" safety_pct;
        ])
      (headlines m)
  in
  Printf.sprintf
    "Safe and unsafe regions vs the best of {Sun, BSD, Lea, GC} and the \
     cost of safety (safe vs unsafe regions), %s inputs:\n\n"
    (Matrix.size_name m)
  ^ Render.md_table ~header rows
  ^ Printf.sprintf
      "\n\nThe moss two-region locality optimisation is %.0f%% faster than \
       the single-region version (paper: 24%%).\n\n\
       Simulated cycles per allocator, with the share of instructions \
       spent in memory management (allocation, reference counting, \
       scans) in parentheses:\n\n"
      (moss_speedup m)
  ^ column_table m ~what:"cycles" cycles_and_share
