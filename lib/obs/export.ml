(* Renderers for the recorded data.  All pure: they read the tracer
   and produce strings, so they can run after the simulation without
   touching it. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON (the "JSON Array Format" Perfetto loads).
   Simulated cycles map 1:1 to trace microseconds. *)

let add_event b ~pid ~first ~name ~cat ~ph ~ts ~args =
  if not !first then Buffer.add_string b ",\n";
  first := false;
  Buffer.add_string b
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%d,\"pid\":%d,\"tid\":1"
       (json_escape name) cat ph ts pid);
  (match ph with "i" -> Buffer.add_string b ",\"s\":\"t\"" | _ -> ());
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v))
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let int_arg n = string_of_int n
let str_arg s = Printf.sprintf "\"%s\"" (json_escape s)

let chrome_json ?pid ?(process_name = "simulated UltraSparc-I") t iter =
  let sort_index = pid and pid = Option.value pid ~default:1 in
  let b = Buffer.create 65536 in
  let first = ref true in
  (* Every event below inherits this export's pid, so multi-column
     exports (one call per allocator column) land as named processes
     in Perfetto rather than bare pids. *)
  let add_event b ~first ~name ~cat ~ph ~ts ~args =
    add_event b ~pid ~first ~name ~cat ~ph ~ts ~args
  in
  Buffer.add_string b
    "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"regions-repro/obs\"},\"traceEvents\":[\n";
  add_event b ~first ~name:"process_name" ~cat:"__metadata" ~ph:"M" ~ts:0
    ~args:[ ("name", str_arg process_name) ];
  add_event b ~first ~name:"thread_name" ~cat:"__metadata" ~ph:"M" ~ts:0
    ~args:[ ("name", str_arg "mutator") ];
  (match sort_index with
  | Some i ->
      add_event b ~first ~name:"process_sort_index" ~cat:"__metadata" ~ph:"M"
        ~ts:0
        ~args:[ ("sort_index", int_arg i) ]
  | None -> ());
  let site_arg site =
    if site = 0 then [] else [ ("site", str_arg (Tracer.site_name t site)) ]
  in
  iter (fun ~kind ~time ~site ~a ~b:pb ->
      let k = Event.of_int kind in
      match k with
      | Event.Phase_begin ->
          add_event b ~first ~name:(Tracer.site_name t site) ~cat:"phase"
            ~ph:"B" ~ts:time ~args:[]
      | Event.Phase_end ->
          add_event b ~first ~name:(Tracer.site_name t site) ~cat:"phase"
            ~ph:"E" ~ts:time ~args:[]
      | Event.Site_enter ->
          add_event b ~first ~name:(Tracer.site_name t site) ~cat:"site"
            ~ph:"B" ~ts:time ~args:[]
      | Event.Site_exit ->
          add_event b ~first ~name:(Tracer.site_name t site) ~cat:"site"
            ~ph:"E" ~ts:time ~args:[]
      | Event.Malloc | Event.Ralloc ->
          add_event b ~first ~name:(Event.name k) ~cat:"alloc" ~ph:"i" ~ts:time
            ~args:
              ([ ("addr", int_arg a); ("bytes", int_arg pb) ] @ site_arg site)
      | Event.Free ->
          add_event b ~first ~name:"free" ~cat:"alloc" ~ph:"i" ~ts:time
            ~args:([ ("addr", int_arg a) ] @ site_arg site)
      | Event.Region_create ->
          add_event b ~first ~name:"region_create" ~cat:"region" ~ph:"i"
            ~ts:time ~args:[ ("region", int_arg a) ]
      | Event.Region_delete ->
          add_event b ~first ~name:"region_delete" ~cat:"region" ~ph:"i"
            ~ts:time
            ~args:[ ("region", int_arg a); ("deleted", int_arg pb) ]
      | Event.Page_map ->
          add_event b ~first ~name:"page_map" ~cat:"os" ~ph:"i" ~ts:time
            ~args:[ ("addr", int_arg a); ("pages", int_arg pb) ]
      | Event.Barrier ->
          add_event b ~first ~name:"barrier" ~cat:"refcount" ~ph:"i" ~ts:time
            ~args:[ ("addr", int_arg a); ("hinted", int_arg pb) ]
      | Event.Gc_begin ->
          add_event b ~first ~name:"gc" ~cat:"gc" ~ph:"B" ~ts:time
            ~args:[ ("collection", int_arg a) ]
      | Event.Gc_end ->
          add_event b ~first ~name:"gc" ~cat:"gc" ~ph:"E" ~ts:time
            ~args:[ ("live_bytes", int_arg a) ]);
  Sampler.iter (Tracer.sampler t) (fun ~cycles p ->
      add_event b ~first ~name:"heap" ~cat:"sample" ~ph:"C" ~ts:cycles
        ~args:
          [
            ("live_bytes", int_arg p.Sampler.live_bytes);
            ("os_bytes", int_arg p.Sampler.os_bytes);
          ];
      add_event b ~first ~name:"stalls" ~cat:"sample" ~ph:"C" ~ts:cycles
        ~args:
          [
            ("read", int_arg p.Sampler.read_stalls);
            ("write", int_arg p.Sampler.write_stalls);
          ];
      add_event b ~first ~name:"cache_misses" ~cat:"sample" ~ph:"C" ~ts:cycles
        ~args:
          [
            ("l1", int_arg p.Sampler.l1_misses);
            ("l2", int_arg p.Sampler.l2_misses);
          ]);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Heap / cache time series as CSV *)

let heap_csv t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "cycles,base_instrs,mem_instrs,read_stalls,write_stalls,live_bytes,os_bytes,l1_hits,l1_misses,l2_misses,stores\n";
  Sampler.iter (Tracer.sampler t) (fun ~cycles p ->
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n" cycles
           p.Sampler.base_instrs p.Sampler.mem_instrs p.Sampler.read_stalls
           p.Sampler.write_stalls p.Sampler.live_bytes p.Sampler.os_bytes
           p.Sampler.l1_hits p.Sampler.l1_misses p.Sampler.l2_misses
           p.Sampler.stores));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Per-site attribution *)

let site_table ?(top = 20) t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "%-24s %8s %9s %11s %11s %11s %10s %10s %12s\n" "site"
       "calls" "allocs" "bytes" "base" "mem" "rd-stall" "wr-stall" "cycles");
  let rows = Tracer.sites t in
  let n = List.length rows in
  List.iteri
    (fun i (s : Tracer.site_stat) ->
      if i < top then
        Buffer.add_string b
          (Printf.sprintf "%-24s %8d %9d %11d %11d %11d %10d %10d %12d\n"
             s.Tracer.name s.Tracer.calls s.Tracer.allocs s.Tracer.bytes
             s.Tracer.base_instrs s.Tracer.mem_instrs s.Tracer.read_stalls
             s.Tracer.write_stalls (Tracer.stat_cycles s)))
    rows;
  if n > top then Buffer.add_string b (Printf.sprintf "... %d more sites\n" (n - top));
  Buffer.contents b

let folded t =
  let b = Buffer.create 4096 in
  List.iter
    (fun (path, cycles) ->
      Buffer.add_string b path;
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int cycles);
      Buffer.add_char b '\n')
    (Tracer.folded t);
  Buffer.contents b

let sites_txt t =
  let b = Buffer.create 1024 in
  for i = 1 to Tracer.nsites t do
    Buffer.add_string b (Printf.sprintf "%d %s\n" i (Tracer.site_name t i))
  done;
  Buffer.contents b
