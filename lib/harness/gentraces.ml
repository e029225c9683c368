(* Generated-trace scaling block: deterministic replay metrics of
   synthetic traces (Trace.Gen) at two object counts per allocator
   column.  Everything in the table is a simulated count — instruction
   totals, allocator OS footprint, peak requested bytes — so the
   rendered bytes are identical on every host and the block sits
   behind the `repro docs --check` gate like the paper's own numbers.

   The story the table carries is boundedness: the synthetic traces
   use id recycling and a fixed live set, so a 10x longer trace must
   not grow any column's simulated footprint.  The host-side half of
   the evidence — wall-clock throughput and peak RSS — is
   machine-dependent: hostbench's gen-replay workload measures it, CI's
   bounded-replay-smoke job caps RSS at 10M objects, and the frozen
   BENCH_4.json ("gen_replay" section) records 1M-50M objects. *)

open Workloads

let sizes = (100_000, 1_000_000)

let columns =
  [
    ("malloc", Api.Direct Api.Sun);
    ("malloc", Api.Direct Api.Bsd);
    ("malloc", Api.Direct Api.Lea);
    ("malloc", Api.Direct Api.Gc);
    ("region", Api.Region { safe = true });
    ("region", Api.Region { safe = false });
  ]

let replay_point ?cache ~variant ~objects mode =
  let p = { Trace.Gen.default with Trace.Gen.objects; variant } in
  let path = Trace.Gen.ensure ?cache p in
  match Trace.Format.open_file path with
  | Error msg ->
      failwith (Printf.sprintf "gentraces: %s: %s" path msg)
  | Ok r ->
      Fun.protect
        ~finally:(fun () -> Trace.Format.close r)
        (fun () -> Trace.Replay.run r mode)

let human n =
  if n >= 1_000_000 && n mod 1_000_000 = 0 then
    Printf.sprintf "%dM" (n / 1_000_000)
  else Printf.sprintf "%dk" (n / 1000)

let md m =
  let cache = Matrix.disk_cache m in
  let lo, hi = sizes in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let spec n = { Trace.Gen.default with Trace.Gen.objects = n } in
  add
    "Synthetic traces (`repro gen`, `%s` with `variant=region` for the \
     region columns), replayed per column.  Simulated counts only — \
     deterministic on every host.  `mm instrs/obj` is the allocator-side \
     instruction cost per allocation at n=%s; the footprint columns show \
     the allocator's simulated OS bytes as the trace gets 10x longer over \
     the same bounded live set (peak requested: %s).\n\n"
    (Trace.Gen.to_string (spec hi))
    (human hi)
    (let r = replay_point ?cache ~variant:"malloc" ~objects:lo (Api.Direct Api.Lea) in
     Printf.sprintf "%dK" (r.Results.req_max_bytes / 1024));
  add "| column | mm instrs/obj | os @ n=%s | os @ n=%s | growth |\n"
    (human lo) (human hi);
  add "|---|---:|---:|---:|---:|\n";
  List.iter
    (fun (variant, mode) ->
      let a = replay_point ?cache ~variant ~objects:lo mode in
      let b = replay_point ?cache ~variant ~objects:hi mode in
      add "| %s | %.1f | %dK | %dK | x%.2f |\n" (Matrix.mode_label mode)
        (float_of_int (Results.memory_instrs b) /. float_of_int hi)
        (a.Results.os_bytes / 1024)
        (b.Results.os_bytes / 1024)
        (float_of_int b.Results.os_bytes /. float_of_int a.Results.os_bytes))
    columns;
  add
    "\nEvery column's footprint is set by the live set, not the trace \
     length: 10x the objects moves no column by more than ~1.5x \
     (collector trigger headroom, page-pool and free-list residue), \
     where footprint proportional to allocation volume would read x10.\n";
  Buffer.contents buf
