open Workloads

let total_stalls (r : Results.t) =
  r.Results.read_stall_cycles + r.Results.write_stall_cycles

let moss_stalls m label =
  total_stalls (List.assoc label (Fig9.columns m (Workload.find "moss")))

let moss_stall_ratio m =
  100. *. float_of_int (moss_stalls m "Reg")
  /. float_of_int (moss_stalls m "Slow")

let render m =
  let s l = Render.mega (moss_stalls m l) in
  Printf.sprintf "Total stall cycles (read + write) per allocator, %s inputs:\n\n"
    (Matrix.size_name m)
  ^ Fig9.column_table m ~what:"stalls" (fun r -> Render.mega (total_stalls r))
  ^ Printf.sprintf
      "\n\nThe optimised moss has %.0f%% of the stalls of the single-region \
       version (paper: approximately half), and BSD — which segregates by \
       size automatically — stalls least among the explicit allocators on \
       moss: BSD %s vs Sun %s vs Lea %s."
      (moss_stall_ratio m) (s "BSD") (s "Sun") (s "Lea")
