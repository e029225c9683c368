(* Generated-trace blocks: deterministic replay metrics of synthetic
   traces (Trace.Gen) per allocator column, rendered as two blocks —
   the scaling table (two object counts per column) and the heap
   timelines (memory-over-allocation-events curves, as sparklines from
   an Obs.Timeline attached to the larger replay).  Both blocks come
   from one replay per (column, object count).  Everything shown is a
   simulated count — instruction totals, allocator OS footprint, the
   event clock, cost-free allocator accounting — so the rendered bytes
   are identical on every host and both blocks sit behind the
   `repro docs --check` gate like the paper's own numbers.

   The story the blocks carry is boundedness: the synthetic traces
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

(* Small ring: compaction leaves 32..64 evenly spaced samples, one
   sparkline glyph each. *)
let capacity = 64

type column = {
  mode : Api.mode;
  small : Results.t;  (** at [fst sizes] objects *)
  large : Results.t;  (** at [snd sizes] objects, timeline attached *)
  timeline : Obs.Timeline.t;
}

let replay ?timeline path mode =
  match Trace.Format.open_file path with
  | Error msg -> failwith (Printf.sprintf "gentraces: %s: %s" path msg)
  | Ok r ->
      Fun.protect
        ~finally:(fun () -> Trace.Format.close r)
        (fun () -> Trace.Replay.run ?timeline r mode)

(* Each of the four traces (two variants, two object counts) is made
   once, then replayed under every column it serves. *)
let replays m =
  let cache = Matrix.disk_cache m in
  let lo, hi = sizes in
  let traces =
    List.concat_map
      (fun variant ->
        List.map
          (fun objects ->
            ( (variant, objects),
              Trace.Gen.ensure ?cache
                { Trace.Gen.default with Trace.Gen.objects; variant } ))
          [ lo; hi ])
      [ "malloc"; "region" ]
  in
  List.map
    (fun (variant, mode) ->
      let trace objects = List.assoc (variant, objects) traces in
      let timeline = Obs.Timeline.create ~capacity () in
      {
        mode;
        small = replay (trace lo) mode;
        large = replay ~timeline (trace hi) mode;
        timeline;
      })
    columns

let human n =
  if n >= 1_000_000 && n mod 1_000_000 = 0 then
    Printf.sprintf "%dM" (n / 1_000_000)
  else Printf.sprintf "%dk" (n / 1000)

let md rs =
  let lo, hi = sizes in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let spec n = { Trace.Gen.default with Trace.Gen.objects = n } in
  let lea = List.find (fun r -> r.mode = Api.Direct Api.Lea) rs in
  add
    "Synthetic traces (`repro gen`, `%s` with `variant=region` for the \
     region columns), replayed per column.  Simulated counts only — \
     deterministic on every host.  `mm instrs/obj` is the allocator-side \
     instruction cost per allocation at n=%s; the footprint columns show \
     the allocator's simulated OS bytes as the trace gets 10x longer over \
     the same bounded live set (peak requested: %dK).\n\n"
    (Trace.Gen.to_string (spec hi))
    (human hi)
    (lea.small.Results.req_max_bytes / 1024);
  add "| column | mm instrs/obj | os @ n=%s | os @ n=%s | growth |\n"
    (human lo) (human hi);
  add "|---|---:|---:|---:|---:|\n";
  List.iter
    (fun { mode; small = a; large = b; _ } ->
      add "| %s | %.1f | %dK | %dK | x%.2f |\n" (Matrix.mode_label mode)
        (float_of_int (Results.memory_instrs b) /. float_of_int hi)
        (a.Results.os_bytes / 1024)
        (b.Results.os_bytes / 1024)
        (float_of_int b.Results.os_bytes /. float_of_int a.Results.os_bytes))
    rs;
  add
    "\nEvery column's footprint is set by the live set, not the trace \
     length: 10x the objects moves no column by more than ~1.5x \
     (collector trigger headroom, page-pool and free-list residue), \
     where footprint proportional to allocation volume would read x10.\n";
  Buffer.contents buf

let glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let spark_of peak samples =
  let b = Buffer.create 128 in
  List.iter
    (fun v ->
      let i = if peak <= 0 then 0 else min 7 (v * 8 / peak) in
      Buffer.add_string b glyphs.(i))
    (List.rev samples);
  Buffer.contents b

let kb n = Printf.sprintf "%dK" (n / 1024)

let timeline_md rs =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "Simulated OS footprint sampled over the allocation-event clock \
     while replaying the %dk-object generated trace per column \
     (`repro replay --timeline DIR` writes the full CSVs).  Each \
     sparkline is scaled to its own peak; the fragmentation columns \
     split the end state into internal (manager-held minus live \
     requested bytes) and external (OS-mapped minus manager-held).\n\n"
    (snd sizes / 1000);
  add
    "| column | os bytes over the trace | samples | peak os | end live \
     | int frag | ext frag |\n";
  add "|---|---|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun { mode; timeline = tl; _ } ->
      let samples = ref [] in
      let peak = ref 0 in
      let last = ref (0, 0, 0) in
      Obs.Timeline.iter tl
        (fun ~events:_ ~live_allocs:_ ~live_bytes ~held_bytes ~os_bytes ->
          if os_bytes > !peak then peak := os_bytes;
          samples := os_bytes :: !samples;
          last := (live_bytes, held_bytes, os_bytes));
      let live, held, os = !last in
      add "| %s | `%s` | %d | %s | %s | %s | %s |\n" (Matrix.mode_label mode)
        (spark_of !peak !samples)
        (Obs.Timeline.length tl)
        (kb !peak) (kb live)
        (kb (held - live))
        (kb (os - held)))
    rs;
  add
    "\nFlat sparklines are the bounded-footprint claim made visible: \
     the live set is fixed, so a column whose curve keeps climbing is \
     leaking or hoarding.  The malloc columns carry their waste as \
     internal fragmentation (size-class and header overhead inside \
     manager-held bytes); the region columns carry theirs as external \
     fragmentation (partially filled pages), and the collector column's \
     internal gap is floating garbage awaiting the next collection.\n";
  Buffer.contents buf
