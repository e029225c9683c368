open Workloads

(* The five allocator footprints per benchmark and the regions-vs-Lea
   headline, which the claims check reads too. *)

let mode_results m spec =
  let modes = Matrix.malloc_modes spec @ [ Matrix.region_safe ] in
  List.map (fun mode -> (mode, Matrix.get m spec mode)) modes

let lea_result m spec =
  Matrix.get m spec
    (if spec.Workload.region_only then Api.Emulated Api.Lea
     else Api.Direct Api.Lea)

let vs_lea m =
  List.map
    (fun spec ->
      let lea = lea_result m spec in
      let reg = Matrix.get m spec Matrix.region_safe in
      ( spec.Workload.name,
        100.
        *. (float_of_int reg.Results.os_bytes
            /. float_of_int lea.Results.os_bytes
           -. 1.) ))
    Matrix.workloads

let render m =
  let header =
    [
      "benchmark"; "Sun kB"; "BSD kB"; "Lea kB"; "GC kB"; "Reg kB";
      "requested kB"; "Reg rank"; "Reg vs Lea";
    ]
  in
  let rows =
    List.concat_map
      (fun spec ->
        let results = mode_results m spec in
        let result label =
          snd
            (List.find (fun (mode, _) -> Matrix.mode_label mode = label) results)
        in
        let os label = (result label).Results.os_bytes in
        let reg = os "Reg" in
        let rank =
          1
          + List.length
              (List.filter (fun (_, r) -> r.Results.os_bytes < reg) results)
        in
        let requested = (snd (List.hd results)).Results.req_max_bytes in
        let pct = List.assoc spec.Workload.name (vs_lea m) in
        let malloc_labels = [ "Sun"; "BSD"; "Lea"; "GC" ] in
        let row =
          spec.Workload.name
          :: List.map (fun l -> Render.kb (os l)) malloc_labels
          @ [
              Render.kb reg;
              Render.kb requested;
              string_of_int rank;
              Printf.sprintf "%+.0f%%" pct;
            ]
        in
        (* The region-only benchmarks' malloc columns run under the
           emulation library; as in Table 3, a second row gives their
           footprint without its per-object and region records. *)
        if spec.Workload.region_only then
          [
            row;
            "  (w/o emulation overhead)"
            :: List.map
                 (fun l ->
                   let r = result l in
                   Render.kb (r.Results.os_bytes - r.Results.emu_overhead_bytes))
                 malloc_labels
            @ [ ""; ""; ""; "" ];
          ]
        else [ row ])
      Matrix.workloads
  in
  Printf.sprintf
    "OS footprint per allocator (%s inputs; \"Reg rank\" = where safe \
     regions place among the five managers, 1 = smallest):\n\n"
    (Matrix.size_name m)
  ^ Render.md_table ~header rows
  ^ "\n\nPaper: regions use from 9% less to 19% more memory than Lea."
