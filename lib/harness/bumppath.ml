(* The [bumppath] generated block of EXPERIMENTS.md.  Every column is
   simulated and recomputed live on each docs render, so it is
   deterministic on any host; host time lives in hostbench. *)

open Workloads

(* One engine run; returns the outcome and the charged allocation
   instructions. *)
let measure ~bump params =
  let api = Api.create ~with_cache:true (Api.Region { safe = true }) in
  let o = Server.run api { params with Server.bump } in
  let r = Results.collect api ~workload:"bumppath" ~summary:"bench" in
  (o, r.Results.alloc_instrs)

let md m =
  let params = Workload.server_params 4 (Matrix.size m) in
  let o_legacy, legacy_instrs = measure ~bump:false params in
  let o_bump, bump_instrs = measure ~bump:true params in
  if o_legacy.Server.checksum <> o_bump.Server.checksum then
    failwith "bumppath block: bump path changed allocation addresses";
  let allocs = max 1 o_bump.Server.allocs in
  let per instrs = float_of_int instrs /. float_of_int allocs in
  let bs = o_bump.Server.bump_stats in
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "Per-mutator inline allocation regions (a cached page and free \
     offset per mutator, SBCL-style): the fast path bumps the offset \
     in two charged instructions, and the slow path — page refill, \
     region bookkeeping write-back — runs only when the cached page \
     fills or the mutator switches regions.  Same %d-mutator server \
     scenario, bump path off vs on; allocation addresses are \
     byte-identical (checksum `%x` both ways), only the charged \
     instruction count changes:\n\n"
    params.Server.mutators o_bump.Server.checksum;
  add
    "| path | sim alloc instrs/alloc | sim speedup | fast-path hit \
     rate | refills (contended) |\n";
  add "|---|---:|---:|---:|---:|\n";
  add "| legacy | %.1f | 1.00× | — | — |\n" (per legacy_instrs);
  add "| bump | %.1f | %.2f× | %.1f%% | %d (%d) |\n" (per bump_instrs)
    (float_of_int legacy_instrs /. float_of_int (max 1 bump_instrs))
    (100.0 *. float_of_int bs.Regions.Region.bs_hits /. float_of_int allocs)
    bs.Regions.Region.bs_refills bs.Regions.Region.bs_contended_refills;
  add
    "\nThe speedup is confined to the allocation context — base work, \
     refcount barriers and cleanup are untouched — and the hit rate \
     is what a production allocator would see: every small-object \
     allocation except the first on each fresh page.  Host time of \
     the bump path is the `bumppath` workload of `python3 \
     hostbench/run.py`.\n";
  Buffer.contents b
