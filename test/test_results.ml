(* The machine-readable results layer: deterministic JSON, the
   versioned Cell schema, the persistent store + golden diff, the
   content-addressed cell cache, and the generated-docs engine.  The
   load-bearing properties: a cache hit is byte-identical to a cold
   run, any identity-field change misses, and a drifted document is
   detected with a readable diff. *)

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Json *)

let rec json_gen depth =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Results.Json.Null;
        map (fun b -> Results.Json.Bool b) bool;
        map (fun i -> Results.Json.Int i) int;
        (* Finite doubles only: NaN/inf are not JSON. *)
        map (fun f -> Results.Json.Float f) (float_bound_inclusive 1e15);
        map (fun s -> Results.Json.String s) string_printable;
      ]
  in
  if depth = 0 then scalar
  else
    oneof
      [
        scalar;
        map (fun l -> Results.Json.List l) (list_size (0 -- 4) (json_gen (depth - 1)));
        map
          (fun kvs -> Results.Json.Obj kvs)
          (list_size (0 -- 4)
             (pair string_printable (json_gen (depth - 1))));
      ]

let json_arb = QCheck.make ~print:Results.Json.to_string (json_gen 3)

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"to_string |> of_string round-trips"
    json_arb (fun j ->
      match Results.Json.of_string (Results.Json.to_string j) with
      | Ok j' -> j = j'
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let prop_json_compact_roundtrip =
  QCheck.Test.make ~count:300 ~name:"compact printing round-trips too"
    json_arb (fun j ->
      match
        Results.Json.of_string (Results.Json.to_string ~indent:false j)
      with
      | Ok j' -> j = j'
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let test_json_diff () =
  let open Results.Json in
  let a = Obj [ ("x", Int 1); ("p", Obj [ ("b", String "old") ]) ] in
  let b = Obj [ ("x", Int 2); ("p", Obj [ ("b", String "new") ]) ] in
  check_int "two differences" 2 (List.length (diff a b));
  check_int "provenance-like subtree pruned" 1
    (List.length (diff ~ignore_keys:[ "p" ] a b));
  check_int "equal values: no diff" 0 (List.length (diff a a))

(* The encoding [--metrics] prints and the daemon's [--metrics-out]
   file holds, pinned byte-for-byte: one series of each kind. *)
let test_metrics_json () =
  let reg = Obs.Metrics.create ~enabled:true () in
  let c = Obs.Metrics.counter reg ~labels:[ ("col", "lea") ] "allocs" in
  Obs.Metrics.inc c;
  Obs.Metrics.add c 2;
  Obs.Metrics.set (Obs.Metrics.gauge reg "rate") 1.5;
  let h = Obs.Metrics.histogram reg "lat_us" in
  List.iter (Obs.Metrics.observe h) [ 0; 5; 6 ];
  check_str "snapshot encoding"
    ({|{"metrics":[|}
    ^ {|{"name":"allocs","labels":{"col":"lea"},"type":"counter","value":3},|}
    ^ {|{"name":"lat_us","labels":{},"type":"histogram","count":3,"sum":11,"buckets":[[0,1],[3,2]]},|}
    ^ {|{"name":"rate","labels":{},"type":"gauge","value":1.5}]}|})
    (Results.Json.to_string ~indent:false
       (Results.Json.metrics_json (Obs.Metrics.snapshot reg)))

(* ------------------------------------------------------------------ *)
(* Cell schema *)

(* One cheap real cell, shared by the schema tests. *)
let sample_result =
  lazy
    (Workloads.Workload.run_collect
       (Workloads.Workload.find "cfrac")
       (Workloads.Api.Direct Workloads.Api.Sun)
       Workloads.Workload.Quick)

let sample_cell ?(seed = 0) ?(plan = "none") ?(build_id = "test-build") () =
  Results.Cell.make ~size:"quick" ~build_id ~seed ~plan
    (Lazy.force sample_result)

let test_cell_roundtrip () =
  let c = sample_cell () in
  let s = Results.Cell.to_string c in
  match Results.Cell.of_string s with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok c' ->
      check_str "re-encode is byte-identical" s (Results.Cell.to_string c');
      check_bool "decoded result equals original" true
        (c'.Results.Cell.result = c.Results.Cell.result);
      check_bool "provenance survives" true (c'.Results.Cell.prov = c.Results.Cell.prov)

(* A committed golden cell: the schema contract frozen as bytes.  If
   encoding or field naming changes, this fails before any golden
   results file in the wild does. *)
let golden_cell_json =
  {|{
  "schema": 1,
  "size": "quick",
  "provenance": {
    "build_id": "golden-build",
    "seed": 7,
    "plan": "budget=8"
  },
  "result": {
    "workload": "wl",
    "mode": "sun",
    "summary": "s",
    "cycles": 123,
    "base_instrs": 100,
    "alloc_instrs": 10,
    "refcount_instrs": 1,
    "stack_scan_instrs": 2,
    "cleanup_instrs": 3,
    "read_stall_cycles": 4,
    "write_stall_cycles": 5,
    "os_bytes": 4096,
    "emu_overhead_bytes": 0,
    "req_allocs": 6,
    "req_total_bytes": 7,
    "req_max_bytes": 8,
    "regions": {
      "total_regions": 2,
      "max_live_regions": 1,
      "max_region_bytes": 4096,
      "avg_region_bytes": 2048.5,
      "avg_allocs_per_region": 3.0
    }
  }
}
|}

let test_cell_golden () =
  match Results.Cell.of_string golden_cell_json with
  | Error e -> Alcotest.failf "golden cell no longer decodes: %s" e
  | Ok c ->
      check_str "golden cell re-encodes byte-identically" golden_cell_json
        (Results.Cell.to_string c);
      check_str "workload" "wl" (Results.Cell.workload c);
      check_int "seed" 7 c.Results.Cell.prov.Results.Cell.seed

let test_cell_rejects_damage () =
  let reject label s =
    match Results.Cell.of_string s with
    | Ok _ -> Alcotest.failf "%s: damaged cell decoded" label
    | Error _ -> ()
  in
  reject "not json" "nonsense";
  reject "wrong schema"
    {|{ "schema": 999, "size": "quick", "provenance": { "build_id": "b", "seed": 0, "plan": "none" }, "result": {} }|};
  reject "missing measurement field"
    {|{ "schema": 1, "size": "quick", "provenance": { "build_id": "b", "seed": 0, "plan": "none" }, "result": { "workload": "w" } }|}

(* ------------------------------------------------------------------ *)
(* Store *)

let test_store_roundtrip_and_diff () =
  let c = sample_cell () in
  let s = Results.Store.of_list [ c ] in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "results-test-%d.json" (Unix.getpid ()))
  in
  Harness.Tracefiles.write_file path (Results.Store.to_string s);
  (match Results.Store.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok s' ->
      check_str "save/load is byte-stable" (Results.Store.to_string s)
        (Results.Store.to_string s');
      check_int "one cell" 1 (Results.Store.length s'));
  Sys.remove path;
  (* Same measurements, different build id: the golden diff must stay
     empty (provenance is ignored by construction). *)
  let rebuilt = Results.Store.of_list [ sample_cell ~build_id:"other" () ] in
  check_int "provenance-only change is not drift" 0
    (List.length (Results.Store.diff ~expected:s ~actual:rebuilt));
  (* A changed measurement must be reported, naming the cell. *)
  let r = Lazy.force sample_result in
  let tampered =
    Results.Store.of_list
      [
        Results.Cell.make ~size:"quick" ~build_id:"other"
          { r with Workloads.Results.cycles = r.Workloads.Results.cycles + 1 };
      ]
  in
  (match Results.Store.diff ~expected:s ~actual:tampered with
  | [] -> Alcotest.fail "tampered cycles not detected"
  | line :: _ -> check_bool "diff line is non-empty" true (line <> ""));
  (* Missing cell. *)
  check_bool "missing cell reported" true
    (Results.Store.diff ~expected:s ~actual:(Results.Store.of_list []) <> [])

(* ------------------------------------------------------------------ *)
(* Cache *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "repro-cache-test-%d-%d" (Unix.getpid ()) !n)
    in
    d

let find_sample cache ?(seed = 0) ?(plan = "none") ?(size = "quick") () =
  Results.Cache.find cache ~workload:"cfrac" ~mode:"sun" ~size ~seed ~plan

let test_cache_hit_and_invalidation () =
  let dir = fresh_dir () in
  let cache = Results.Cache.create ~dir ~build_id:"build-A" () in
  let c = sample_cell ~build_id:"build-A" () in
  Results.Cache.store cache c;
  (match find_sample cache () with
  | None -> Alcotest.fail "stored cell not found"
  | Some c' ->
      check_str "hit is byte-identical to the stored cell"
        (Results.Cell.to_string c) (Results.Cell.to_string c'));
  (* Identity-field changes must miss. *)
  check_bool "different seed misses" true (find_sample cache ~seed:1 () = None);
  check_bool "different plan misses" true
    (find_sample cache ~plan:"budget=8" () = None);
  check_bool "different size misses" true
    (find_sample cache ~size:"full" () = None);
  let other_build = Results.Cache.create ~dir ~build_id:"build-B" () in
  check_bool "different build id misses" true (find_sample other_build () = None);
  (* Damage: a truncated entry degrades to a miss, never an error. *)
  let key =
    Results.Cache.key cache ~workload:"cfrac" ~mode:"sun" ~size:"quick"
      ~seed:0 ~plan:"none"
  in
  let path = Filename.concat dir (key ^ ".json") in
  let oc = open_out path in
  output_string oc "{ torn";
  close_out oc;
  check_bool "torn entry is a miss" true (find_sample cache () = None)

(* A store that cannot complete is a soft failure that leaves nothing
   behind: with a directory squatting on the entry's final path the
   rename fails, and the temp file must go with it. *)
let test_cache_store_failure_cleans_up () =
  let dir = fresh_dir () in
  let cache = Results.Cache.create ~dir ~build_id:"build-A" () in
  let key =
    Results.Cache.key cache ~workload:"cfrac" ~mode:"sun" ~size:"quick"
      ~seed:0 ~plan:"none"
  in
  let final = Filename.concat dir (key ^ ".json") in
  Sys.mkdir dir 0o755;
  Sys.mkdir final 0o755;
  Sys.mkdir (Filename.concat final "occupied") 0o755;
  Results.Cache.store cache (sample_cell ~build_id:"build-A" ());
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (String.starts_with ~prefix:(key ^ ".json.tmp."))
  in
  Alcotest.(check (list string)) "no temp file left behind" [] leftovers;
  check_bool "the entry is a miss" true (find_sample cache () = None)

(* Size-capped eviction: oldest-served entries go first, a hot entry
   survives because `find` bumps its mtime, and in-flight temp files
   are never touched. *)
let test_cache_sweep_lru () =
  let dir = fresh_dir () in
  let cache = Results.Cache.create ~dir ~build_id:"build-A" () in
  let entry_path seed =
    Filename.concat dir
      (Results.Cache.key cache ~workload:"cfrac" ~mode:"sun" ~size:"quick"
         ~seed ~plan:"none"
      ^ ".json")
  in
  for seed = 0 to 9 do
    Results.Cache.store cache (sample_cell ~seed ~build_id:"build-A" ());
    (* distinct, strictly increasing ages without sleeping: backdate
       seed i to i+1 seconds past the epoch *)
    let t = float_of_int (seed + 1) in
    Unix.utimes (entry_path seed) t t
  done;
  (* Serving seed 0 bumps it to "now", making it the hottest entry. *)
  (match find_sample cache ~seed:0 () with
  | Some _ -> ()
  | None -> Alcotest.fail "warm entry not found");
  let entry_bytes = (Unix.stat (entry_path 0)).Unix.st_size in
  (* leave an in-flight temp file lying around: sweeps must skip it *)
  let tmp = Filename.concat dir "entry.json.tmp.999" in
  let oc = open_out tmp in
  output_string oc (String.make 4096 'x');
  close_out oc;
  (* Cap at ~3 entries: 7 of the 10 must be evicted, oldest first. *)
  let evicted = Results.Cache.sweep cache ~max_bytes:(3 * entry_bytes) in
  check_int "evicted down to the cap" 7 evicted;
  check_bool "hot entry survived the sweep" true
    (find_sample cache ~seed:0 () <> None);
  check_bool "in-flight temp file untouched" true (Sys.file_exists tmp);
  check_int "already under cap: sweep is a no-op" 0
    (Results.Cache.sweep cache ~max_bytes:(3 * entry_bytes));
  (* survivors are exactly the youngest mtimes: seeds 8, 9 and the
     bumped seed 0 *)
  List.iter
    (fun seed ->
      check_bool
        (Printf.sprintf "seed %d present after sweep" seed)
        true
        (find_sample cache ~seed () <> None))
    [ 0; 8; 9 ];
  check_bool "coldest entry evicted" true (find_sample cache ~seed:1 () = None)

(* Advisory store lock: a second process gets a readable diagnostic,
   the same process can re-acquire after release, and a dead holder
   (kill -9) releases implicitly because lockf locks die with the
   process. *)
let test_lockfile_contention () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "LOCK" in
  let l =
    match Results.Lockfile.acquire ~owner:"repro-test" path with
    | Ok l -> l
    | Error e -> Alcotest.failf "first acquire failed: %s" e
  in
  (* lockf locks are per-process, so contention needs a child *)
  (match Unix.fork () with
  | 0 ->
      let code =
        match Results.Lockfile.acquire ~owner:"child" path with
        | Error msg
          when String.length msg > 0
               && (let contains hay needle =
                     let n = String.length hay
                     and m = String.length needle in
                     let rec go i =
                       i + m <= n
                       && (String.sub hay i m = needle || go (i + 1))
                     in
                     go 0
                   in
                   contains msg "repro-test" && contains msg path) ->
            0
        | Error _ -> 3 (* locked, but the diagnostic lost the holder *)
        | Ok _ -> 4 (* double acquisition: the lock is not a lock *)
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED 3 ->
          Alcotest.fail "contention diagnostic does not name the holder"
      | _, Unix.WEXITED 4 -> Alcotest.fail "second process acquired the lock"
      | _ -> Alcotest.fail "child crashed"));
  Results.Lockfile.release l;
  (* released: the next acquire (same process, fresh fd) succeeds *)
  match Results.Lockfile.acquire ~owner:"again" path with
  | Ok l2 -> Results.Lockfile.release l2
  | Error e -> Alcotest.failf "acquire after release failed: %s" e

let test_cache_key_is_stable () =
  let cache = Results.Cache.create ~dir:(fresh_dir ()) ~build_id:"b" () in
  let k () =
    Results.Cache.key cache ~workload:"w" ~mode:"m" ~size:"quick" ~seed:1
      ~plan:"none"
  in
  check_str "same identity, same key" (k ()) (k ());
  let k2 =
    Results.Cache.key cache ~workload:"w" ~mode:"m" ~size:"quick" ~seed:2
      ~plan:"none"
  in
  check_bool "seed reaches the digest" true (k () <> k2)

(* ------------------------------------------------------------------ *)
(* Warm vs cold matrix: a fully cached run must render byte-identical
   reports while executing zero workloads. *)

let render_report m =
  String.concat "\n"
    (List.filter_map
       (fun (s : Harness.Docs.section) ->
         match s.render with `Matrix f -> Some (f m) | `Static _ -> None)
       Harness.Docs.sections)

let test_warm_cache_byte_identical () =
  let dir = fresh_dir () in
  let disk () = Results.Cache.create ~dir ~build_id:"matrix-test" () in
  let cold = Harness.Matrix.create ~disk:(disk ()) Workloads.Workload.Quick in
  ignore (Harness.Matrix.run_all ~domains:1 cold);
  let cold_report = render_report cold in
  let _, cold_misses = Harness.Matrix.cache_stats cold in
  check_int "cold run computed every cell" 37 cold_misses;
  let warm = Harness.Matrix.create ~disk:(disk ()) Workloads.Workload.Quick in
  ignore (Harness.Matrix.run_all ~domains:1 warm);
  let warm_report = render_report warm in
  let warm_hits, warm_misses = Harness.Matrix.cache_stats warm in
  check_int "warm run computed nothing" 0 warm_misses;
  check_int "warm run served every cell from disk" 37 warm_hits;
  check_str "warm report is byte-identical to cold" cold_report warm_report;
  (* --refresh: recomputes everything, still byte-identical. *)
  let refreshed =
    Harness.Matrix.create ~disk:(disk ()) ~refresh:true Workloads.Workload.Quick
  in
  ignore (Harness.Matrix.run_all ~domains:1 refreshed);
  let hits, misses = Harness.Matrix.cache_stats refreshed in
  check_int "--refresh never reads" 0 hits;
  check_int "--refresh recomputes every cell" 37 misses;
  check_str "--refresh report is byte-identical" cold_report
    (render_report refreshed);
  (* The snapshot store carries every cell with provenance. *)
  let store = Harness.Matrix.store warm in
  check_int "store holds all cells" 37 (Results.Store.length store);
  List.iter
    (fun c ->
      check_str "store provenance carries the build id" "matrix-test"
        c.Results.Cell.prov.Results.Cell.build_id)
    (Results.Store.to_list store)

(* ------------------------------------------------------------------ *)
(* Docs: substitution and drift detection *)

let docs_matrix =
  lazy
    (let dir = fresh_dir () in
     let m =
       Harness.Matrix.create
         ~disk:(Results.Cache.create ~dir ~build_id:"docs-test" ())
         Workloads.Workload.Quick
     in
     ignore (Harness.Matrix.run_all ~domains:1 m);
     m)

let test_docs_regenerate_and_drift () =
  let m = Lazy.force docs_matrix in
  let doc =
    "# title\n\nprose stays\n\n<!-- generated:fig9 -->\nSTALE NUMBERS\n\
     <!-- /generated:fig9 -->\n\ntrailing prose\n"
  in
  match Harness.Docs.regenerate m doc with
  | Error e -> Alcotest.failf "regenerate failed: %s" e
  | Ok fresh ->
      let contains hay needle =
        let n = String.length hay and k = String.length needle in
        let rec go i = i + k <= n && (String.sub hay i k = needle || go (i + 1)) in
        go 0
      in
      check_bool "stale body replaced" false (contains fresh "STALE NUMBERS");
      check_bool "fresh body rendered" true
        (contains fresh "cost of safety");
      check_bool "prose preserved" true
        (contains fresh "prose stays" && contains fresh "trailing prose");
      check_bool "markers preserved" true
        (contains fresh "<!-- generated:fig9 -->"
        && contains fresh "<!-- /generated:fig9 -->");
      (* Drift: the stale committed doc vs its regeneration. *)
      (match Harness.Docs.drift ~label:"DOC" ~current:doc ~regenerated:fresh with
      | [] -> Alcotest.fail "stale document not flagged"
      | hd :: _ -> check_bool "diff labelled" true (contains hd "DOC"));
      check_int "no drift on identical text" 0
        (List.length
           (Harness.Docs.drift ~label:"DOC" ~current:fresh ~regenerated:fresh));
      (* Idempotence: regenerating a regenerated doc changes nothing. *)
      (match Harness.Docs.regenerate m fresh with
      | Error e -> Alcotest.failf "second regenerate failed: %s" e
      | Ok fresh2 -> check_str "regeneration is idempotent" fresh fresh2)

let test_docs_bad_markers () =
  let m = Lazy.force docs_matrix in
  (match Harness.Docs.regenerate m "<!-- generated:nonsense -->\n<!-- /generated:nonsense -->" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown block id accepted");
  (match Harness.Docs.regenerate m "<!-- generated:fig9 -->\nno close" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated block accepted");
  (* A doc with no markers passes through untouched. *)
  match Harness.Docs.regenerate m "plain text\n" with
  | Ok s -> check_str "no markers, no change" "plain text\n" s
  | Error e -> Alcotest.failf "plain doc rejected: %s" e

(* The committed EXPERIMENTS.md and golden results are covered by the
   CI `repro docs --check` gate (see .github/workflows/ci.yml), which
   runs the real binary against the real files. *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "results"
    [
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_compact_roundtrip;
          quick "structural diff with ignored keys" test_json_diff;
          quick "metrics snapshot encoding" test_metrics_json;
        ] );
      ( "cell",
        [
          quick "encode/decode round-trip" test_cell_roundtrip;
          quick "golden bytes stay decodable" test_cell_golden;
          quick "damage is rejected field-by-field" test_cell_rejects_damage;
        ] );
      ("store", [ quick "save/load/diff" test_store_roundtrip_and_diff ]);
      ( "cache",
        [
          quick "hit, invalidation, damage" test_cache_hit_and_invalidation;
          quick "key stability" test_cache_key_is_stable;
          quick "size-capped LRU sweep" test_cache_sweep_lru;
          quick "advisory store lock" test_lockfile_contention;
          quick "failed store leaves no temp file"
            test_cache_store_failure_cleans_up;
        ] );
      ( "matrix",
        [ quick "warm cache is byte-identical, 0 runs" test_warm_cache_byte_identical ] );
      ( "docs",
        [
          quick "regenerate + drift detection" test_docs_regenerate_and_drift;
          quick "marker validation" test_docs_bad_markers;
        ] );
    ]
