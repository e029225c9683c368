(* Multi-mutator contention/fairness block: the server-N scenario
   family rendered into one scaling table (measured matrix cells for
   the charged columns, a direct deterministic engine run for the
   scheduler- and bump-side counters the Results record does not
   carry) plus a per-mutator detail table with heap-curve sparklines.

   Everything here is simulated and deterministic — interleaving is a
   pure function of (seed, quantum, N) and every count is a charged or
   cost-free simulator number — so the block sits behind `repro docs
   --check` like the paper figures. *)

open Workloads

let scenario_ns = [ 1; 2; 4; 8 ]
let detail_n = 4
let glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

(* Per-mutator live-bytes curve (one sample per switch-out), folded to
   at most [width] buckets by per-bucket max and scaled to the
   mutator's own peak. *)
let spark ?(width = 24) curve =
  let n = Array.length curve in
  if n = 0 then "—"
  else begin
    let buckets = min width n in
    let peak = max 1 (Array.fold_left max 0 curve) in
    let b = Buffer.create (buckets * 3) in
    for i = 0 to buckets - 1 do
      let lo = i * n / buckets in
      let hi = max (lo + 1) ((i + 1) * n / buckets) in
      let m = ref 0 in
      for j = lo to hi - 1 do
        if curve.(j) > !m then m := curve.(j)
      done;
      Buffer.add_string b glyphs.(min 7 (!m * 8 / peak))
    done;
    Buffer.contents b
  end

let kb n = Printf.sprintf "%.1f" (float_of_int n /. 1024.0)

let servers m =
  let run n =
    let api = Api.create ~with_cache:true (Api.Region { safe = true }) in
    Server.run api (Workload.server_params n (Matrix.size m))
  in
  let runs = List.map (fun n -> (n, lazy (run n))) scenario_ns in
  fun n -> Lazy.force (List.assoc n runs)

let step_shares (o : Server.outcome) =
  let total =
    Array.fold_left (fun a ms -> a + ms.Server.ms_steps) 0 o.Server.per_mutator
  in
  let total = max 1 total in
  Array.fold_left
    (fun (lo, hi) ms ->
      let share = 100.0 *. float_of_int ms.Server.ms_steps /. float_of_int total in
      (min lo share, max hi share))
    (100.0, 0.0) o.Server.per_mutator

let md m server =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add
    "N mutators time-sliced over the one simulated machine by a \
     deterministic weighted round-robin schedule (seeded quantum \
     jitter), each serving its request stream with a per-request \
     region lifecycle.  Charged columns come from the measured \
     `server-N` matrix cells (safe regions); scheduler and bump-path \
     counters from the same deterministic engine run.  `contended` \
     counts page refills taken while another mutator also held an \
     open allocation region — the shared-page-map pressure a real \
     multi-threaded runtime would lock against.\n\n";
  add
    "| mutators | served | handoffs | interleave | fairness (step \
     share) | bump hits | refills (contended) | cycles | alloc \
     instrs | rc instrs | os KB |\n";
  add "|---:|---:|---:|---|---|---:|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun n ->
      let spec = Workload.find (Printf.sprintf "server-%d" n) in
      let r = Matrix.get m spec Matrix.region_safe in
      let o = server n in
      let lo, hi = step_shares o in
      add "| %d | %d | %d | `%08x` | %.1f–%.1f%% | %d | %d (%d) | %d | %d | %d | %d |\n"
        n o.Server.served o.Server.handoffs
        (o.Server.interleave_hash land 0xffffffff)
        lo hi o.Server.bump_stats.Regions.Region.bs_hits
        o.Server.bump_stats.Regions.Region.bs_refills
        o.Server.bump_stats.Regions.Region.bs_contended_refills
        r.Results.cycles r.Results.alloc_instrs r.Results.refcount_instrs
        (r.Results.os_bytes / 1024))
    scenario_ns;
  let o = server detail_n in
  add
    "\nPer-mutator view at N=%d — the fairness figure.  Steps and \
     quanta are scheduler grants; the curve is the mutator's live \
     bytes sampled at each switch-out, scaled to its own peak (the \
     spikes are the every-eighth batch requests):\n\n"
    detail_n;
  add
    "| mutator | served | allocs | alloc KB | peak live KB | steps | \
     quanta | live bytes over the run |\n";
  add "|---:|---:|---:|---:|---:|---:|---:|---|\n";
  Array.iteri
    (fun i ms ->
      add "| %d | %d | %d | %s | %s | %d | %d | `%s` |\n" i
        ms.Server.ms_served ms.Server.ms_allocs
        (kb ms.Server.ms_bytes)
        (kb ms.Server.ms_peak_live_bytes)
        ms.Server.ms_steps ms.Server.ms_quanta
        (spark ms.Server.ms_curve))
    o.Server.per_mutator;
  add
    "\nEvery mutator serves its full quota and the step shares stay \
     within a few percent of even — the scheduler starves nobody \
     while the interleave hash pins the exact handoff sequence, so a \
     scheduling change cannot slip past this block unnoticed.\n";
  Buffer.contents b
