(* Tests for the observability layer: the spill file, the time-series
   sampler's partition property, the Chrome trace_event export (golden
   file), and — the load-bearing invariant — that tracing never
   perturbs the simulated counts. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* A sink that keeps every event in memory, and an iterator over
   what it kept, oldest first. *)
let memory_sink () =
  let events = ref [] in
  let sink ~kind ~time ~site ~a ~b =
    events := (kind, time, site, a, b) :: !events
  in
  let iter (f : Obs.Tracer.sink) =
    List.iter
      (fun (kind, time, site, a, b) -> f ~kind ~time ~site ~a ~b)
      (List.rev !events)
  in
  (sink, iter)

(* {1 Spill file} *)

let with_tmp_file f =
  let path = Filename.temp_file "obs-test" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_spill_roundtrip () =
  with_tmp_file (fun path ->
      let oc = open_out_bin path in
      let sink = Obs.Spill.sink oc in
      for i = 0 to 10 do
        sink ~kind:(i mod 14) ~time:i ~site:0 ~a:(i * 2) ~b:(i * 3)
      done;
      close_out oc;
      let records = ref [] in
      Obs.Spill.read_file path (fun ~kind ~time ~site ~a ~b ->
          records := (kind, time, site, a, b) :: !records);
      let records = List.rev !records in
      check_int "all records replayed" 11 (List.length records);
      List.iteri
        (fun i (kind, time, site, a, b) ->
          check_int "kind" (i mod 14) kind;
          check_int "time" i time;
          check_int "site" 0 site;
          check_int "a" (i * 2) a;
          check_int "b" (i * 3) b)
        records;
      (* header really is the documented magic *)
      let ic = open_in_bin path in
      let m = really_input_string ic (String.length Obs.Spill.magic) in
      close_in ic;
      check_str "magic" Obs.Spill.magic m)

(* A spill cut short fails closed: inside a record (1 to 39 bytes
   short of whole) or inside the magic, [read_file] raises [Failure]
   naming the byte offset of the cut, before delivering any record. *)
let test_spill_truncated () =
  with_tmp_file (fun path ->
      let oc = open_out_bin path in
      let sink = Obs.Spill.sink oc in
      for i = 0 to 10 do
        sink ~kind:(i mod 14) ~time:i ~site:0 ~a:i ~b:i
      done;
      close_out oc;
      let whole = In_channel.with_open_bin path In_channel.input_all in
      let fails_at ~len ~offset =
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (String.sub whole 0 len));
        let delivered = ref 0 in
        match
          Obs.Spill.read_file path (fun ~kind:_ ~time:_ ~site:_ ~a:_ ~b:_ ->
              incr delivered)
        with
        | () -> Alcotest.failf "%d-byte spill read without error" len
        | exception Failure msg ->
            check_bool
              (Printf.sprintf "%d bytes: %S names byte %d" len msg offset)
              true
              (contains msg (Printf.sprintf "byte %d" offset));
            check_int "no record delivered" 0 !delivered
      in
      let last = String.length whole - Obs.Spill.record_bytes in
      for cut = 1 to Obs.Spill.record_bytes - 1 do
        fails_at ~len:(String.length whole - cut) ~offset:last
      done;
      fails_at ~len:5 ~offset:5)

(* {1 Event kinds} *)

let test_event_codes_roundtrip () =
  List.iter
    (fun e ->
      let i = Obs.Event.to_int e in
      check_bool "code in range" true (i >= 0 && i < 14);
      check_bool "of_int inverts to_int" true (Obs.Event.of_int i = e);
      check_bool "named" true (String.length (Obs.Event.name e) > 0))
    Obs.Event.all

(* {1 Sampler: the partition property} *)

(* Drive a sampler with synthetic monotone counters: whatever the
   increments and sampling cadence, the per-interval deltas must sum to
   the final cumulative counters, and sample times must be strictly
   increasing.  This is the property that makes the heap time-series an
   exact decomposition of the end-of-run totals. *)
let probe_of_cum c =
  {
    Obs.Sampler.base_instrs = c;
    mem_instrs = 2 * c;
    read_stalls = 3 * c;
    write_stalls = c / 2;
    live_bytes = c mod 4096;
    os_bytes = c - (c mod 4096);
    l1_hits = 5 * c;
    l1_misses = c / 3;
    l2_misses = c / 7;
    stores = 4 * c;
  }

let sampler_partition_prop (interval, steps) =
  let s = Obs.Sampler.create ~interval () in
  let now = ref 0 and cum = ref 0 in
  List.iter
    (fun (dt, dc) ->
      now := !now + dt;
      cum := !cum + dc;
      if Obs.Sampler.due s ~now:!now then
        Obs.Sampler.record s ~now:!now (probe_of_cum !cum))
    steps;
  Obs.Sampler.finish s ~now:!now (probe_of_cum !cum);
  let final = probe_of_cum !cum in
  let sum = ref Obs.Sampler.zero_probe in
  let prev = ref Obs.Sampler.zero_probe in
  let last_cycles = ref (-1) in
  let monotone = ref true in
  Obs.Sampler.iter s (fun ~cycles p ->
      if cycles <= !last_cycles then monotone := false;
      last_cycles := cycles;
      let d = Obs.Sampler.sub p !prev in
      prev := p;
      let open Obs.Sampler in
      sum :=
        {
          base_instrs = !sum.base_instrs + d.base_instrs;
          mem_instrs = !sum.mem_instrs + d.mem_instrs;
          read_stalls = !sum.read_stalls + d.read_stalls;
          write_stalls = !sum.write_stalls + d.write_stalls;
          live_bytes = !sum.live_bytes + d.live_bytes;
          os_bytes = !sum.os_bytes + d.os_bytes;
          l1_hits = !sum.l1_hits + d.l1_hits;
          l1_misses = !sum.l1_misses + d.l1_misses;
          l2_misses = !sum.l2_misses + d.l2_misses;
          stores = !sum.stores + d.stores;
        });
  !monotone && !sum = final

let sampler_case_gen =
  QCheck.make
    ~print:(fun (interval, steps) ->
      Printf.sprintf "interval=%d steps=%d" interval (List.length steps))
    QCheck.Gen.(
      pair
        (int_range 1 500)
        (list_size (int_range 1 200) (pair (int_range 0 300) (int_range 0 999))))

let sampler_partition_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"interval deltas partition the totals"
       sampler_case_gen sampler_partition_prop)

let test_sampler_finish_idempotent_at_now () =
  let s = Obs.Sampler.create ~interval:100 () in
  Obs.Sampler.record s ~now:0 (probe_of_cum 0);
  Obs.Sampler.finish s ~now:42 (probe_of_cum 7);
  let n = Obs.Sampler.length s in
  Obs.Sampler.finish s ~now:42 (probe_of_cum 7);
  check_int "no duplicate closing sample" n (Obs.Sampler.length s)

(* {1 Golden Chrome JSON}

   A tiny deterministic scenario (manual clock and probe) rendered to
   the exact bytes Perfetto / chrome://tracing consume.  Any format
   drift — field order, escaping, the metadata preamble, the counter
   rows — fails this test. *)

let golden_scenario () =
  let sink, iter = memory_sink () in
  let tr = Obs.Tracer.create ~sample_interval:100 sink in
  let now = ref 0 in
  Obs.Tracer.set_clock tr (fun () -> !now);
  let probe = ref Obs.Sampler.zero_probe in
  Obs.Tracer.set_probe tr (fun () -> !probe);
  Obs.Tracer.phase tr "boot" (fun () ->
      now := 10;
      Obs.Tracer.malloc tr ~addr:4096 ~bytes:32;
      Obs.Tracer.site tr "fill" (fun () ->
          now := 120;
          probe :=
            { Obs.Sampler.zero_probe with base_instrs = 50; live_bytes = 32;
              os_bytes = 4096 };
          Obs.Tracer.barrier tr ~addr:4100 ~hinted:false);
      now := 250;
      probe :=
        { Obs.Sampler.zero_probe with base_instrs = 200; live_bytes = 0;
          os_bytes = 4096 };
      Obs.Tracer.free tr ~addr:4096);
  Obs.Tracer.finish tr;
  (tr, iter)

let golden_json =
  {|{"displayTimeUnit":"ms","otherData":{"generator":"regions-repro/obs"},"traceEvents":[
{"name":"process_name","cat":"__metadata","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"simulated UltraSparc-I"}},
{"name":"thread_name","cat":"__metadata","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"mutator"}},
{"name":"boot","cat":"phase","ph":"B","ts":0,"pid":1,"tid":1},
{"name":"malloc","cat":"alloc","ph":"i","ts":10,"pid":1,"tid":1,"s":"t","args":{"addr":4096,"bytes":32,"site":"boot"}},
{"name":"fill","cat":"site","ph":"B","ts":10,"pid":1,"tid":1},
{"name":"barrier","cat":"refcount","ph":"i","ts":120,"pid":1,"tid":1,"s":"t","args":{"addr":4100,"hinted":0}},
{"name":"fill","cat":"site","ph":"E","ts":120,"pid":1,"tid":1},
{"name":"free","cat":"alloc","ph":"i","ts":250,"pid":1,"tid":1,"s":"t","args":{"addr":4096,"site":"boot"}},
{"name":"boot","cat":"phase","ph":"E","ts":250,"pid":1,"tid":1},
{"name":"heap","cat":"sample","ph":"C","ts":0,"pid":1,"tid":1,"args":{"live_bytes":0,"os_bytes":0}},
{"name":"stalls","cat":"sample","ph":"C","ts":0,"pid":1,"tid":1,"args":{"read":0,"write":0}},
{"name":"cache_misses","cat":"sample","ph":"C","ts":0,"pid":1,"tid":1,"args":{"l1":0,"l2":0}},
{"name":"heap","cat":"sample","ph":"C","ts":120,"pid":1,"tid":1,"args":{"live_bytes":32,"os_bytes":4096}},
{"name":"stalls","cat":"sample","ph":"C","ts":120,"pid":1,"tid":1,"args":{"read":0,"write":0}},
{"name":"cache_misses","cat":"sample","ph":"C","ts":120,"pid":1,"tid":1,"args":{"l1":0,"l2":0}},
{"name":"heap","cat":"sample","ph":"C","ts":250,"pid":1,"tid":1,"args":{"live_bytes":0,"os_bytes":4096}},
{"name":"stalls","cat":"sample","ph":"C","ts":250,"pid":1,"tid":1,"args":{"read":0,"write":0}},
{"name":"cache_misses","cat":"sample","ph":"C","ts":250,"pid":1,"tid":1,"args":{"l1":0,"l2":0}}
]}
|}

let test_chrome_json_golden () =
  let tr, iter = golden_scenario () in
  check_str "exact bytes" golden_json (Obs.Export.chrome_json tr iter)

let test_golden_scenario_profile () =
  let tr, _ = golden_scenario () in
  (* fill ran cycles 10..120 with base_instrs going 0 -> 50; boot gets
     the rest, net of the nested span. *)
  let stat name =
    List.find (fun s -> s.Obs.Tracer.name = name) (Obs.Tracer.sites tr)
  in
  check_int "fill self base instrs" 50 (stat "fill").Obs.Tracer.base_instrs;
  check_int "boot self base instrs" 150 (stat "boot").Obs.Tracer.base_instrs;
  check_int "boot tagged the malloc" 32 (stat "boot").Obs.Tracer.bytes;
  let folded = Obs.Tracer.folded tr in
  check_bool "nested folded path" true
    (List.mem_assoc "boot;fill" folded);
  check_bool "toplevel entry present" true
    (List.mem_assoc "(toplevel)" folded)

let test_json_escape () =
  check_str "quotes, backslash, control" {|a\"b\\c\nd\u0001|}
    (Obs.Export.json_escape "a\"b\\c\nd\001")

(* {1 Tracing a real run} *)

let quick = Workloads.Workload.Quick
let cfrac = Workloads.Workload.find "cfrac"
let moss = Workloads.Workload.find "moss"
let region_safe = Workloads.Api.Region { safe = true }

let results ?observer spec mode =
  Workloads.Workload.(collect (run ?observer spec mode quick))

let test_event_stream_ordered () =
  let sink, iter = memory_sink () in
  let tr = Obs.Tracer.create sink in
  let (_ : Workloads.Results.t) =
    results ~observer:(Workloads.Api.Tracer tr) cfrac region_safe
  in
  check_bool "events recorded" true (Obs.Tracer.events tr > 0);
  let last = ref (-1) and ordered = ref true and n = ref 0 in
  iter (fun ~kind ~time ~site ~a:_ ~b:_ ->
      incr n;
      if time < !last then ordered := false;
      last := time;
      check_bool "kind decodes" true
        (String.length (Obs.Event.name (Obs.Event.of_int kind)) > 0);
      check_bool "site interned" true
        (site >= 0 && site <= Obs.Tracer.nsites tr));
  check_bool "timestamps nondecreasing" true !ordered;
  check_int "the sink saw every event" (Obs.Tracer.events tr) !n;
  (* the sampler observed the run too *)
  check_bool "samples taken" true (Obs.Sampler.length (Obs.Tracer.sampler tr) > 1)

(* The invariant everything else rests on: simulated counts are
   byte-identical with no tracer and with one attached, sampling and
   writing a spill file. *)
let results_line ?observer spec mode =
  Fmt.str "%a" Workloads.Results.pp (results ?observer spec mode)

let check_neutral spec mode =
  let baseline = results_line spec mode in
  with_tmp_file (fun path ->
      let oc = open_out_bin path in
      let tr = Obs.Tracer.create ~sample_interval:10_000 (Obs.Spill.sink oc) in
      let traced = results_line ~observer:(Workloads.Api.Tracer tr) spec mode in
      close_out oc;
      check_str "tracer is count-neutral" baseline traced;
      check_bool "yet it really traced" true (Obs.Tracer.events tr > 0))

let test_neutrality_region () = check_neutral cfrac region_safe
let test_neutrality_gc () = check_neutral cfrac (Workloads.Api.Direct Gc)

(* {1 One observer per facade operation} *)

let mudlle = Workloads.Workload.find "mudlle"

type region_ops = {
  mutable created : int;
  mutable deleted : int;
  mutable refused : int;
}

let region_ops () = { created = 0; deleted = 0; refused = 0 }

(* A test-only sink that counts the region operations the facade
   announces and observes nothing else. *)
let counting_sink c =
  {
    Workloads.Api.null_sink with
    on_newregion = (fun ~r:_ -> c.created <- c.created + 1);
    on_deleteregion =
      (fun ~frame:_ ~slot:_ ~r:_ ~ok ->
        if ok then c.deleted <- c.deleted + 1 else c.refused <- c.refused + 1);
  }

(* The tracer's region events come from the facade's sink alone, so
   under real and emulated regions alike they match, one for one, the
   operations any other sink sees; and a sink that only counts moves
   no simulated count. *)
let check_region_events mode =
  let traced = region_ops () in
  let tr =
    Obs.Tracer.create (fun ~kind ~time:_ ~site:_ ~a:_ ~b ->
        match Obs.Event.of_int kind with
        | Obs.Event.Region_create -> traced.created <- traced.created + 1
        | Region_delete when b = 1 -> traced.deleted <- traced.deleted + 1
        | Region_delete -> traced.refused <- traced.refused + 1
        | _ -> ())
  in
  let (_ : string) =
    results_line ~observer:(Workloads.Api.Tracer tr) mudlle mode
  in
  let seen = region_ops () in
  let counted =
    results_line ~observer:(Workloads.Api.Sink (counting_sink seen)) mudlle
      mode
  in
  check_bool "regions were created" true (seen.created > 0);
  check_bool "regions were deleted" true (seen.deleted > 0);
  check_int "Region_create = newregion" seen.created traced.created;
  check_int "Region_delete deleted = deleteregion ~ok:true" seen.deleted
    traced.deleted;
  check_int "Region_delete refused = deleteregion ~ok:false" seen.refused
    traced.refused;
  check_str "counting sink is count-neutral" (results_line mudlle mode) counted

let test_region_events_region () = check_region_events region_safe

let test_region_events_unsafe () =
  check_region_events (Workloads.Api.Region { safe = false })

let test_region_events_emulated () =
  check_region_events (Workloads.Api.Emulated Lea)

(* {1 Trace artefacts on disk} *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let check_trace_files spec mode =
  let out = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "obs-artefacts-%d" (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> try rm_rf out with Sys_error _ -> ())
    (fun () ->
      let _r, tr, files =
        Harness.Tracefiles.run_traced ~out spec mode quick
      in
      List.iter
        (fun p -> check_bool (Filename.basename p ^ " exists") true (Sys.file_exists p))
        [ files.Harness.Tracefiles.events_bin; files.trace_json;
          files.heap_csv; files.sites_txt; files.folded ];
      let json = read_file files.Harness.Tracefiles.trace_json in
      check_bool "json header" true
        (String.length json > 2 && String.sub json 0 1 = "{");
      check_bool "json trailer" true (contains json "\n]}");
      check_bool "json has trace events" true (contains json {|"traceEvents":[|});
      let bin = read_file files.Harness.Tracefiles.events_bin in
      check_str "spill magic" Obs.Spill.magic
        (String.sub bin 0 (String.length Obs.Spill.magic));
      check_bool "spill holds whole records" true
        ((String.length bin - String.length Obs.Spill.magic)
         mod Obs.Spill.record_bytes = 0);
      let csv = read_file files.Harness.Tracefiles.heap_csv in
      check_bool "csv header" true
        (contains csv "cycles,base_instrs");
      check_bool "csv has rows" true
        (List.length (String.split_on_char '\n' (String.trim csv)) > 1);
      let folded = read_file files.Harness.Tracefiles.folded in
      check_bool "folded nonempty" true (String.length (String.trim folded) > 0);
      (* the spill file replays to the same number of events the
         tracer emitted over the whole run *)
      let n = ref 0 in
      Obs.Spill.read_file files.Harness.Tracefiles.events_bin
        (fun ~kind:_ ~time:_ ~site:_ ~a:_ ~b:_ -> incr n);
      check_int "spill is the complete stream" (Obs.Tracer.events tr) !n)

(* A body that raises mid-run still leaves every event it emitted on
   disk: the tracer writes each one straight to the spill file, which
   is closed on the way out. *)
exception Cut

let test_raise_keeps_events () =
  let out = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "obs-raise-%d" (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> try rm_rf out with Sys_error _ -> ())
    (fun () ->
      let traced = ref None in
      (match
         Harness.Tracefiles.with_tracer ~out mudlle region_safe (fun tr ->
             traced := Some tr;
             let api =
               Workloads.Api.create ~with_cache:true
                 ~observer:(Workloads.Api.Tracer tr) region_safe
             in
             let r = Workloads.Api.newregion api in
             for _ = 1 to 100 do
               ignore (Workloads.Api.rstralloc api r 16 : int)
             done;
             raise Cut)
       with
      | _ -> Alcotest.fail "the body's exception must propagate"
      | exception Cut -> ());
      let tr = Option.get !traced in
      let base =
        Filename.concat out (Harness.Tracefiles.stem mudlle region_safe)
      in
      let n = ref 0 in
      Obs.Spill.read_file (base ^ ".events.bin")
        (fun ~kind:_ ~time:_ ~site:_ ~a:_ ~b:_ -> incr n);
      check_bool "the body emitted its allocations" true
        (Obs.Tracer.events tr > 100);
      check_int "every emitted event is on disk" (Obs.Tracer.events tr) !n;
      check_bool "no artefact past the spill file" false
        (Sys.file_exists (base ^ ".trace.json")))

let test_trace_files_cfrac () = check_trace_files cfrac region_safe
let test_trace_files_moss () =
  check_trace_files moss (Workloads.Api.Direct Lea)

(* {1 Timeline} *)

let test_timeline_bounded_monotone () =
  let tl = Obs.Timeline.create ~capacity:8 () in
  let notes = ref 0 in
  Obs.Timeline.set_probe tl (fun () ->
      (!notes, 2 * !notes, 3 * !notes, 4 * !notes));
  for _ = 1 to 1000 do
    incr notes;
    Obs.Timeline.note tl
  done;
  Obs.Timeline.finish tl;
  let n = Obs.Timeline.length tl in
  check_bool "bounded by capacity" true (n <= 8);
  check_bool "compaction keeps half" true (n >= 4);
  let prev = ref 0 and last = ref 0 in
  Obs.Timeline.iter tl
    (fun ~events ~live_allocs ~live_bytes:_ ~held_bytes:_ ~os_bytes:_ ->
      check_bool "event clock strictly increases" true (events > !prev);
      prev := events;
      last := events;
      check_int "probe ran at its own event" events live_allocs);
  check_int "curve ends on the end state" 1000 !last;
  Obs.Timeline.finish tl;
  check_int "finish is idempotent" n (Obs.Timeline.length tl)

let test_timeline_csv () =
  let tl = Obs.Timeline.create ~capacity:4 () in
  Obs.Timeline.set_probe tl (fun () -> (1, 10, 16, 4096));
  Obs.Timeline.note tl;
  Obs.Timeline.finish tl;
  check_str "derived fragmentation columns"
    ("events,live_allocs,live_bytes,held_bytes,os_bytes,internal_frag_bytes,external_frag_bytes,mapped_pages\n"
   ^ "1,1,10,16,4096,6,4080,1\n")
    (Obs.Timeline.to_csv tl)

(* {1 Parameterized Chrome export} *)

let test_chrome_json_custom_process () =
  let tr, iter = golden_scenario () in
  let j =
    Obs.Export.chrome_json ~pid:7 ~process_name:"column A" tr iter
  in
  check_bool "events carry the pid" true (contains j "\"pid\":7");
  check_bool "process name" true (contains j "\"name\":\"column A\"");
  check_bool "thread name" true (contains j "\"name\":\"mutator\"");
  check_bool "sort index record" true (contains j "\"sort_index\":7");
  check_bool "default export omits sort index" false
    (contains (Obs.Export.chrome_json tr iter) "process_sort_index")

let () =
  Alcotest.run "obs"
    [
      ( "spill",
        [
          Alcotest.test_case "roundtrip" `Quick test_spill_roundtrip;
          Alcotest.test_case "truncated spill fails closed" `Quick
            test_spill_truncated;
        ] );
      ( "events",
        [
          Alcotest.test_case "codes roundtrip" `Quick
            test_event_codes_roundtrip;
        ] );
      ( "sampler",
        [
          sampler_partition_test;
          Alcotest.test_case "finish is idempotent at a cycle" `Quick
            test_sampler_finish_idempotent_at_now;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "bounded ring, monotone event clock" `Quick
            test_timeline_bounded_monotone;
          Alcotest.test_case "csv fragmentation columns" `Quick
            test_timeline_csv;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json golden file" `Quick
            test_chrome_json_golden;
          Alcotest.test_case "parameterized process metadata" `Quick
            test_chrome_json_custom_process;
          Alcotest.test_case "golden scenario profile attribution" `Quick
            test_golden_scenario_profile;
          Alcotest.test_case "json escaping" `Quick test_json_escape;
        ] );
      ( "tracing a run",
        [
          Alcotest.test_case "event stream is time-ordered" `Quick
            test_event_stream_ordered;
          Alcotest.test_case "count-neutral under regions" `Quick
            test_neutrality_region;
          Alcotest.test_case "count-neutral under the collector" `Quick
            test_neutrality_gc;
        ] );
      ( "sink",
        [
          Alcotest.test_case "region events from one path (region)" `Quick
            test_region_events_region;
          Alcotest.test_case "region events from one path (unsafe)" `Quick
            test_region_events_unsafe;
          Alcotest.test_case "region events from one path (emu-lea)" `Quick
            test_region_events_emulated;
        ] );
      ( "artefacts",
        [
          Alcotest.test_case "cfrac/region family valid" `Quick
            test_trace_files_cfrac;
          Alcotest.test_case "moss/lea family valid" `Quick
            test_trace_files_moss;
          Alcotest.test_case "a raising body keeps its events" `Quick
            test_raise_keeps_events;
        ] );
    ]
