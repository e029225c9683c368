let schema_version = 1

type provenance = { build_id : string; seed : int; plan : string }

type t = {
  size : string;
  prov : provenance;
  result : Workloads.Results.t;
}

let make ~size ~build_id ?(seed = 0) ?(plan = "none") result =
  { size; prov = { build_id; seed; plan }; result }

let workload t = t.result.Workloads.Results.workload
let mode t = t.result.Workloads.Results.mode

(* ------------------------------------------------------------------ *)
(* Encoding.  Every measurement is a named field — no Marshal, no
   positional records — so a cell written by one build decodes (or
   fails loudly, field by field) under any other. *)

let encode_result (r : Workloads.Results.t) =
  let open Workloads.Results in
  let regions =
    match r.regions with
    | None -> Json.Null
    | Some rg ->
        Json.Obj
          [
            ("total_regions", Json.Int rg.total_regions);
            ("max_live_regions", Json.Int rg.max_live_regions);
            ("max_region_bytes", Json.Int rg.max_region_bytes);
            ("avg_region_bytes", Json.Float rg.avg_region_bytes);
            ("avg_allocs_per_region", Json.Float rg.avg_allocs_per_region);
          ]
  in
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("mode", Json.String r.mode);
      ("summary", Json.String r.summary);
      ("cycles", Json.Int r.cycles);
      ("base_instrs", Json.Int r.base_instrs);
      ("alloc_instrs", Json.Int r.alloc_instrs);
      ("refcount_instrs", Json.Int r.refcount_instrs);
      ("stack_scan_instrs", Json.Int r.stack_scan_instrs);
      ("cleanup_instrs", Json.Int r.cleanup_instrs);
      ("read_stall_cycles", Json.Int r.read_stall_cycles);
      ("write_stall_cycles", Json.Int r.write_stall_cycles);
      ("os_bytes", Json.Int r.os_bytes);
      ("emu_overhead_bytes", Json.Int r.emu_overhead_bytes);
      ("req_allocs", Json.Int r.req_allocs);
      ("req_total_bytes", Json.Int r.req_total_bytes);
      ("req_max_bytes", Json.Int r.req_max_bytes);
      ("regions", regions);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("size", Json.String t.size);
      ( "provenance",
        Json.Obj
          [
            ("build_id", Json.String t.prov.build_id);
            ("seed", Json.Int t.prov.seed);
            ("plan", Json.String t.prov.plan);
          ] );
      ("result", encode_result t.result);
    ]

(* ------------------------------------------------------------------ *)
(* Decoding: explicit per-field extraction with a field-naming error,
   so a truncated or hand-damaged file reports what is missing. *)

let ( let* ) = Result.bind

let field j name conv =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

let decode_result j =
  let int name = field j name Json.to_int in
  let str name = field j name Json.to_str in
  let* workload = str "workload" in
  let* mode = str "mode" in
  let* summary = str "summary" in
  let* cycles = int "cycles" in
  let* base_instrs = int "base_instrs" in
  let* alloc_instrs = int "alloc_instrs" in
  let* refcount_instrs = int "refcount_instrs" in
  let* stack_scan_instrs = int "stack_scan_instrs" in
  let* cleanup_instrs = int "cleanup_instrs" in
  let* read_stall_cycles = int "read_stall_cycles" in
  let* write_stall_cycles = int "write_stall_cycles" in
  let* os_bytes = int "os_bytes" in
  let* emu_overhead_bytes = int "emu_overhead_bytes" in
  let* req_allocs = int "req_allocs" in
  let* req_total_bytes = int "req_total_bytes" in
  let* req_max_bytes = int "req_max_bytes" in
  let* regions =
    match Json.member "regions" j with
    | None -> Error "missing field \"regions\""
    | Some Json.Null -> Ok None
    | Some rj ->
        let rint name = field rj name Json.to_int in
        let rfloat name = field rj name Json.to_float in
        let* total_regions = rint "total_regions" in
        let* max_live_regions = rint "max_live_regions" in
        let* max_region_bytes = rint "max_region_bytes" in
        let* avg_region_bytes = rfloat "avg_region_bytes" in
        let* avg_allocs_per_region = rfloat "avg_allocs_per_region" in
        Ok
          (Some
             {
               Workloads.Results.total_regions;
               max_live_regions;
               max_region_bytes;
               avg_region_bytes;
               avg_allocs_per_region;
             })
  in
  Ok
    {
      Workloads.Results.workload;
      mode;
      summary;
      cycles;
      base_instrs;
      alloc_instrs;
      refcount_instrs;
      stack_scan_instrs;
      cleanup_instrs;
      read_stall_cycles;
      write_stall_cycles;
      os_bytes;
      emu_overhead_bytes;
      req_allocs;
      req_total_bytes;
      req_max_bytes;
      regions;
    }

let of_json j =
  let* v = field j "schema" Json.to_int in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported cell schema %d (want %d)" v schema_version)
  else
    let* size = field j "size" Json.to_str in
    let* pj =
      match Json.member "provenance" j with
      | Some p -> Ok p
      | None -> Error "missing field \"provenance\""
    in
    let* build_id = field pj "build_id" Json.to_str in
    let* seed = field pj "seed" Json.to_int in
    let* plan = field pj "plan" Json.to_str in
    let* rj =
      match Json.member "result" j with
      | Some r -> Ok r
      | None -> Error "missing field \"result\""
    in
    let* result = decode_result rj in
    Ok { size; prov = { build_id; seed; plan }; result }

let to_string t = Json.to_string (to_json t)

let of_string s =
  let* j = Json.of_string s in
  of_json j
