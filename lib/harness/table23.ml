open Workloads

let table2_header =
  [
    "name"; "allocs"; "total kB"; "max kB"; "regions"; "max regions";
    "max region kB"; "avg kB/region"; "avg allocs/region";
  ]

let table2_rows m =
  List.map
    (fun spec ->
      let r = Matrix.get m spec Matrix.region_safe in
      match r.Results.regions with
      | None -> [ spec.Workload.name; "-" ]
      | Some rg ->
          [
            spec.Workload.name;
            string_of_int r.Results.req_allocs;
            Render.kb r.Results.req_total_bytes;
            Render.kb r.Results.req_max_bytes;
            string_of_int rg.Results.total_regions;
            string_of_int rg.Results.max_live_regions;
            Render.kb rg.Results.max_region_bytes;
            Printf.sprintf "%.2f" (rg.Results.avg_region_bytes /. 1024.);
            Printf.sprintf "%.0f" rg.Results.avg_allocs_per_region;
          ])
    Matrix.workloads

let table2_paper_rows () =
  List.map
    (fun (p : Paper.table2_row) ->
      [
        p.t2_name;
        string_of_int p.t2_allocs;
        Printf.sprintf "%.0f" p.t2_total_kb;
        Printf.sprintf "%.1f" p.t2_max_kb;
        string_of_int p.t2_regions;
        string_of_int p.t2_max_regions;
        Printf.sprintf "%.1f" p.t2_max_region_kb;
        Printf.sprintf "%.2f" p.t2_avg_region_kb;
        string_of_int p.t2_avg_allocs;
      ])
    Paper.table2

let render_table2 m =
  Printf.sprintf "Measured (%s inputs):\n\n" (Matrix.size_name m)
  ^ Render.md_table ~header:table2_header (table2_rows m)
  ^ "\n\nAs reported in the paper:\n\n"
  ^ Render.md_table ~header:table2_header (table2_paper_rows ())

let table3_header = [ "name"; "allocs"; "total kB"; "max kB" ]

let table3_rows m =
  List.concat_map
    (fun spec ->
      (* Program behaviour is allocator-independent; use the Lea
         column (emulated for the region-only benchmarks, which then
         also get the paper's "w/o overhead" row). *)
      let mode =
        if spec.Workload.region_only then Api.Emulated Api.Lea
        else Api.Direct Api.Lea
      in
      let r = Matrix.get m spec mode in
      let main_row =
        [
          spec.Workload.name;
          string_of_int r.Results.req_allocs;
          Render.kb r.Results.req_total_bytes;
          Render.kb (r.Results.req_max_bytes + r.Results.emu_overhead_bytes);
        ]
      in
      if spec.Workload.region_only then
        [
          main_row;
          [ "  (w/o overhead)"; ""; ""; Render.kb r.Results.req_max_bytes ];
        ]
      else [ main_row ])
    Matrix.workloads

let table3_paper_rows () =
  List.concat_map
    (fun (p : Paper.table3_row) ->
      let opt f = function Some v -> f v | None -> "-" in
      let main =
        [
          p.t3_name;
          opt string_of_int p.t3_allocs;
          opt (Printf.sprintf "%.0f") p.t3_total_kb;
          opt (Printf.sprintf "%.1f") p.t3_max_kb;
        ]
      in
      match p.t3_max_kb_wo_overhead with
      | Some v -> [ main; [ "  (w/o overhead)"; ""; ""; Printf.sprintf "%.1f" v ] ]
      | None -> [ main ])
    Paper.table3

let render_table3 m =
  Printf.sprintf
    "Measured under the Lea column (%s inputs; region-only benchmarks via \
     the emulation library, with the paper's \"(w/o overhead)\" rows):\n\n"
    (Matrix.size_name m)
  ^ Render.md_table ~header:table3_header (table3_rows m)
  ^ "\n\nAs reported in the paper:\n\n"
  ^ Render.md_table ~header:table3_header (table3_paper_rows ())
