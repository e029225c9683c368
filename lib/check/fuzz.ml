type instance = {
  alloc : Alloc.Allocator.t;
  san : Sanitizer.t;
  mem : Sim.Memory.t;
  frees : [ `Exact | `On_finish | `Untracked ];
  finish : unit -> unit;
}

type target = { label : string; make : Sanitizer.config -> instance }

(* ------------------------------------------------------------------ *)
(* Targets.  Every [make] builds a fresh simulated machine, so traces
   are independent and replays deterministic.  The cache model is
   irrelevant to correctness, so it is disabled for speed. *)

let chunk_target label create =
  {
    label;
    make =
      (fun config ->
        let mem = Sim.Memory.create ~with_cache:false () in
        let san = Sanitizer.wrap ~config (create mem) in
        {
          alloc = Sanitizer.allocator san;
          san;
          mem;
          frees = `Exact;
          finish = ignore;
        });
  }

let sun = chunk_target "sun" Alloc.Sun.create
let bsd = chunk_target "bsd" Alloc.Bsd.create
let lea = chunk_target "lea" Alloc.Lea.create

(* The collector must not reclaim blocks the harness still addresses:
   the sanitizer's live and quarantined base addresses are the root
   set.  The collection trigger is lowered well below the default so a
   few hundred trace ops exercise mark and sweep. *)
let gc =
  {
    label = "gc";
    make =
      (fun config ->
        let mem = Sim.Memory.create ~with_cache:false () in
        let roots_fn = ref (fun _ -> ()) in
        let under, _collector =
          Gcsim.Boehm.create ~trigger_min_bytes:16384
            ~roots:(fun iter -> !roots_fn iter)
            mem
        in
        let san = Sanitizer.wrap ~config under in
        roots_fn := Sanitizer.iter_tracked san;
        {
          alloc = Sanitizer.allocator san;
          san;
          mem;
          frees = `Untracked;
          finish = ignore;
        });
  }

(* An unsafe region behind {!Regions.Region.region_allocator}: [free]
   releases nothing, the whole region goes at once in [finish] via
   [deleteregion] on a handle parked in a global word, which is when
   the frees land in [Stats] ([`On_finish]). *)
let region =
  {
    label = "region";
    make =
      (fun config ->
        let mem = Sim.Memory.create ~with_cache:false () in
        let mut = Regions.Mutator.create ~globals_words:16 mem in
        let cleanups = Regions.Cleanup.create () in
        let lib = Regions.Region.create ~safe:false cleanups mut in
        let r = Regions.Region.newregion lib in
        let slot = Regions.Mutator.global_addr mut 0 in
        Sim.Memory.poke mem slot r;
        let san =
          Sanitizer.wrap ~config (Regions.Region.region_allocator lib r)
        in
        {
          alloc = Sanitizer.allocator san;
          san;
          mem;
          frees = `On_finish;
          finish =
            (fun () ->
              Sanitizer.flush san;
              if not (Regions.Region.deleteregion lib (In_memory slot)) then
                failwith "deleteregion of an unsafe region failed");
        });
  }

let targets_list = [ sun; bsd; lea; gc; region ]
let targets () = targets_list

let find_target label =
  match List.find_opt (fun t -> t.label = label) targets_list with
  | Some t -> t
  | None -> Fmt.invalid_arg "Fuzz: no target %S" label

(* ------------------------------------------------------------------ *)
(* Differential replay *)

type failure = { op : int option; reason : string }

let pp_failure ppf f =
  match f.op with
  | Some i -> Fmt.pf ppf "at op %d: %s" i f.reason
  | None -> Fmt.pf ppf "at end of trace: %s" f.reason

exception Diff of string
exception Stop of failure

let diff fmt = Fmt.kstr (fun s -> raise (Diff s)) fmt

(* Deterministic per-(block, word) fill values, so any lost or stray
   store shows up as a mismatch against the model. *)
let marker id word =
  (0x41000000 lxor (id * 0x9E3779B9) lxor (word * 0x85EBCA6B)) land 0xFFFFFFFF

let run_trace ?(config = Sanitizer.default) target trace =
  let inst = target.make config in
  let mem = inst.mem in
  let model = Model.create () in
  let addrs = Hashtbl.create 64 in
  let addr id =
    match Hashtbl.find_opt addrs id with
    | Some a -> a
    | None -> diff "harness lost the address of block #%d" id
  in
  (* Mutator stores are real (costed) stores: the trace doubles as a
     workload; only the checking reads are cost-free peeks. *)
  let store_word id word value =
    Sim.Memory.store mem (addr id + (word * 4)) value;
    Model.write model ~id ~word ~value
  in
  let exec i op =
    match op with
    | Trace.Alloc { id; size } ->
        let a = inst.alloc.Alloc.Allocator.malloc size in
        Hashtbl.replace addrs id a;
        Model.alloc model ~id ~size;
        store_word id 0 (marker id 0);
        let last = Trace.size_words size - 1 in
        if last > 0 then store_word id last (marker id last)
    | Trace.Free { id } ->
        inst.alloc.Alloc.Allocator.free (addr id);
        Hashtbl.remove addrs id;
        Model.free model ~id
    | Trace.Realloc { id; size } ->
        let old = addr id in
        let keep =
          min (Trace.size_words (Model.size model ~id)) (Trace.size_words size)
        in
        let a = inst.alloc.Alloc.Allocator.malloc size in
        for w = 0 to keep - 1 do
          Sim.Memory.store mem (a + (w * 4)) (Sim.Memory.load mem (old + (w * 4)))
        done;
        inst.alloc.Alloc.Allocator.free old;
        Hashtbl.replace addrs id a;
        Model.realloc model ~id ~size
    | Trace.Poke { id; word } ->
        store_word id word ((marker id word + i) land 0xFFFFFFFF)
  in
  let full_check () =
    Model.iter_live model (fun ~id ~size ->
        let a = addr id in
        let usable = inst.alloc.Alloc.Allocator.usable_size a in
        if usable < size then
          diff "block #%d at %#x: usable_size %d < requested %d" id a usable
            size;
        Model.iter_words model ~id (fun ~word ~value ->
            let got = Sim.Memory.peek mem (a + (word * 4)) in
            if got <> value then
              diff "block #%d word %d at %#x: wrote %#x, read back %#x" id word
                (a + (word * 4))
                value got));
    let blocks = ref [] in
    Model.iter_live model (fun ~id ~size ->
        blocks := (addr id, Trace.size_words size * 4, id) :: !blocks);
    let rec overlaps = function
      | (a1, e1, id1) :: ((a2, _, id2) :: _ as rest) ->
          if a1 + e1 > a2 then
            diff "blocks #%d at %#x (%d bytes) and #%d at %#x overlap" id1 a1
              e1 id2 a2;
          overlaps rest
      | _ -> ()
    in
    overlaps (List.sort compare !blocks);
    Sanitizer.check inst.san
  in
  let finish_checks () =
    full_check ();
    Sanitizer.flush inst.san;
    let st = inst.alloc.Alloc.Allocator.stats in
    if Alloc.Stats.allocs st <> Model.allocs model then
      diff "stats: %d allocs recorded, trace performed %d"
        (Alloc.Stats.allocs st) (Model.allocs model);
    (match inst.frees with
    | `Exact ->
        if Alloc.Stats.frees st <> Model.frees model then
          diff "stats: %d frees recorded, trace performed %d"
            (Alloc.Stats.frees st) (Model.frees model);
        let rz = config.Sanitizer.redzone_words * 8 in
        let expect = ref 0 in
        Model.iter_live model (fun ~id:_ ~size ->
            expect := !expect + (Trace.size_words size * 4) + rz);
        if Alloc.Stats.live_bytes st <> !expect then
          diff "stats: live_bytes %d, expected %d"
            (Alloc.Stats.live_bytes st) !expect
    | `On_finish ->
        inst.finish ();
        if Alloc.Stats.frees st <> Alloc.Stats.allocs st then
          diff "stats after deleteregion: %d frees vs %d allocs"
            (Alloc.Stats.frees st) (Alloc.Stats.allocs st);
        if Alloc.Stats.live_bytes st <> 0 then
          diff "stats after deleteregion: live_bytes %d, expected 0"
            (Alloc.Stats.live_bytes st)
    | `Untracked -> ());
    match inst.frees with `On_finish -> () | `Exact | `Untracked -> inst.finish ()
  in
  let guarded opi f =
    try f () with
    | Sanitizer.Violation v ->
        raise (Stop { op = opi; reason = Fmt.str "%a" Sanitizer.pp_violation v })
    | Diff s -> raise (Stop { op = opi; reason = s })
    | Failure s -> raise (Stop { op = opi; reason = "heap invariant: " ^ s })
    | Alloc.Allocator.Invalid_free a ->
        raise (Stop { op = opi; reason = Fmt.str "allocator rejected free of %#x" a })
    | Sim.Memory.Fault s -> raise (Stop { op = opi; reason = "memory fault: " ^ s })
    | Invalid_argument s -> raise (Stop { op = opi; reason = "invalid argument: " ^ s })
  in
  try
    Array.iteri
      (fun i op ->
        guarded (Some i) (fun () ->
            exec i op;
            if (i + 1) mod 16 = 0 then full_check ()))
      trace.Trace.ops;
    guarded None finish_checks;
    Ok ()
  with Stop f -> Error f

(* ------------------------------------------------------------------ *)
(* Shrinking.  Only validity-preserving deletions are attempted: the
   whole history of a block id, a single [Poke], or a single [Free]
   (ids are never reused, so dropping a [Free] leaves a well-formed
   trace).  Greedy, to a fixpoint. *)

let uses id = function
  | Trace.Alloc a -> a.id = id
  | Trace.Free f -> f.id = id
  | Trace.Realloc r -> r.id = id
  | Trace.Poke p -> p.id = id

let shrink ?(config = Sanitizer.default) target trace =
  let fails t =
    match run_trace ~config target t with Ok () -> None | Error f -> Some f
  in
  let failure =
    match fails trace with
    | Some f -> f
    | None -> Fmt.invalid_arg "Fuzz.shrink: trace does not fail on %s" target.label
  in
  let current = ref trace and failure = ref failure in
  let try_ops ops =
    if Array.length ops >= Array.length !current.Trace.ops then false
    else
      let cand = { !current with Trace.ops } in
      match fails cand with
      | Some f ->
          current := cand;
          failure := f;
          true
      | None -> false
  in
  (match !failure.op with
  | Some i when i + 1 < Array.length trace.Trace.ops ->
      ignore (try_ops (Array.sub trace.Trace.ops 0 (i + 1)))
  | _ -> ());
  let progress = ref true in
  while !progress do
    progress := false;
    let ids =
      Array.fold_left
        (fun acc op ->
          match op with
          | Trace.Alloc { id; _ } -> id :: acc
          | _ -> acc)
        [] !current.Trace.ops
    in
    List.iter
      (fun id ->
        let kept =
          Array.of_seq
            (Seq.filter (fun op -> not (uses id op))
               (Array.to_seq !current.Trace.ops))
        in
        if try_ops kept then progress := true)
      ids;
    let i = ref (Array.length !current.Trace.ops - 1) in
    while !i >= 0 do
      let ops = !current.Trace.ops in
      (if !i < Array.length ops then
         match ops.(!i) with
         | Trace.Poke _ | Trace.Free _ ->
             let kept =
               Array.append (Array.sub ops 0 !i)
                 (Array.sub ops (!i + 1) (Array.length ops - !i - 1))
             in
             if try_ops kept then progress := true
         | Trace.Alloc _ | Trace.Realloc _ -> ());
      decr i
    done
  done;
  (!current, !failure)

(* ------------------------------------------------------------------ *)
(* Plan-driven fault injection.  A [Fault.Plan] can deny, recover and
   deny again (ramps), so this exercises the full graceful-degradation
   contract: every denial surfaces as the allocator's documented Fault,
   and the heap stays walkable after every single one — verified by
   [check_heap] at each caught fault, not just at the end. *)

let fault_plan_injection target ~plan ~ops =
  let inst = target.make Sanitizer.default in
  Fault.Inject.with_plan ~plan inst.mem (fun inj ->
      let caught = ref 0 in
      let failed = ref None in
      (try
         for i = 0 to ops - 1 do
           match inst.alloc.Alloc.Allocator.malloc (32 + (i * 52 mod 480)) with
           | (_ : int) -> ()
           | exception Sim.Memory.Fault _ ->
               incr caught;
               inst.alloc.Alloc.Allocator.check_heap ()
         done
       with
      | Failure m ->
          failed := Some ("heap inconsistent after denied mapping: " ^ m)
      | Sanitizer.Violation v ->
          failed :=
            Some
              (Fmt.str "sanitizer violation after denied mapping: %a"
                 Sanitizer.pp_violation v)
      | e ->
          failed :=
            Some ("expected Sim.Memory.Fault, got " ^ Printexc.to_string e));
      match !failed with
      | Some m -> Error m
      | None ->
          if !caught <> Fault.Inject.denials inj then
            Error
              (Fmt.str "plan denied %d requests but only %d faults surfaced"
                 (Fault.Inject.denials inj) !caught)
          else begin
            match inst.alloc.Alloc.Allocator.check_heap () with
            | () ->
                Ok
                  ( !caught,
                    Fmt.str "%d faults surfaced, heap walkable (%s)" !caught
                      (Fault.Inject.summary inj) )
            | exception Failure m -> Error ("final heap walk failed: " ^ m)
            | exception Sanitizer.Violation v ->
                Error (Fmt.str "final sanitizer check failed: %a" Sanitizer.pp_violation v)
          end)

(* Bit-flip corruption aimed at sanitizer redzones: every applied flip
   must be detected by the very next [Sanitizer.check], then the test
   repairs the word (flips it back) and continues.  100% detection is
   the contract — a flip the sanitizer misses is a harness bug. *)

let bitflip_detection target ~seed ~ops =
  let inst = target.make Sanitizer.default in
  let plan = Fault.Plan.make ~seed [ Fault.Plan.Bit_flip { every = 1; bit = seed land 31 } ] in
  (* Aim each flip at a currently-guarded redzone word; the hook fires
     mid-malloc, so the target set is exactly the blocks tracked before
     the allocation in progress. *)
  let pick ~u ~bit =
    let words = ref [] and n = ref 0 in
    Sanitizer.iter_redzone_words inst.san (fun a ->
        words := a :: !words;
        incr n);
    if !n = 0 then None
    else
      let i = min (!n - 1) (int_of_float (u *. float_of_int !n)) in
      Some (List.nth !words i, bit)
  in
  Fault.Inject.with_plan ~pick ~plan inst.mem (fun inj ->
      let repaired = ref 0 in
      let detected = ref 0 in
      let failed = ref None in
      let repair_new () =
        (* Applied flips are most recent first; undo the ones not yet
           repaired and verify the heap is clean again. *)
        let fresh = Fault.Inject.flips inj - !repaired in
        List.iteri
          (fun i (addr, bit) ->
            if i < fresh then Sim.Memory.flip_bit inst.mem addr bit)
          (Fault.Inject.applied inj);
        repaired := !repaired + fresh;
        Sanitizer.check inst.san
      in
      let detect_and_repair () =
        if Fault.Inject.flips inj > !repaired then begin
          (match Sanitizer.check inst.san with
          | () ->
              failed :=
                Some
                  (Fmt.str
                     "flip %d at a redzone word went undetected by the sanitizer"
                     (Fault.Inject.flips inj))
          | exception Sanitizer.Violation _ -> incr detected);
          if !failed = None then repair_new ()
        end
      in
      (try
         for i = 0 to ops - 1 do
           if !failed = None then begin
             (* Detect (and repair) between the malloc that flipped and
                any later operation, so quarantine evictions never trip
                over a flip that is still awaiting detection. *)
             (* KB-scale blocks keep every allocator coming back to
                map_pages (the corruption point): word-sized requests
                would let Sun and Lea serve the whole run from one
                up-front arena and starve the plan of events. *)
             match
               inst.alloc.Alloc.Allocator.malloc (512 + (i * 768 mod 3072))
             with
             | addr ->
                 detect_and_repair ();
                 if !failed = None && i mod 3 = 0 then
                   inst.alloc.Alloc.Allocator.free addr
             | exception Sim.Memory.Fault _ -> detect_and_repair ()
           end
         done
       with
      | Sanitizer.Violation v ->
          failed :=
            Some (Fmt.str "unexpected violation outside a flip: %a" Sanitizer.pp_violation v)
      | e -> failed := Some ("unexpected " ^ Printexc.to_string e));
      match !failed with
      | Some m -> Error m
      | None ->
          if !detected = 0 then Error "no bit-flips were ever injected"
          else if !detected <> Fault.Inject.flips inj then
            Error
              (Fmt.str "%d flips injected but only %d detected"
                 (Fault.Inject.flips inj) !detected)
          else
            Ok
              (Fmt.str "%d/%d redzone bit-flips detected (100%%)" !detected
                 (Fault.Inject.flips inj)))

(* ------------------------------------------------------------------ *)
(* Self-test: a wrapper that returns every block one word late.  The
   replay's marker store to a block's last word then lands exactly on
   the first rear-redzone word, so an unbroken harness must flag every
   trace containing an allocation. *)

let off_by_one (a : Alloc.Allocator.t) =
  {
    a with
    Alloc.Allocator.name = a.Alloc.Allocator.name ^ "+off-by-one";
    malloc = (fun size -> a.Alloc.Allocator.malloc size + 4);
    free = (fun user -> a.Alloc.Allocator.free (user - 4));
    usable_size = (fun user -> a.Alloc.Allocator.usable_size (user - 4));
  }

let buggy_target =
  {
    label = "sun+off-by-one";
    make =
      (fun config ->
        let inst = sun.make config in
        { inst with alloc = off_by_one inst.alloc });
  }

let selftest ~seed =
  let trace = Trace.generate ~seed ~len:48 in
  match run_trace buggy_target trace with
  | Ok () -> Error "the off-by-one allocator passed the harness undetected"
  | Error _ -> Ok (shrink buggy_target trace)

(* ------------------------------------------------------------------ *)

let main ?(progress = fun _ -> ()) ~traces ~seed () =
  let ok = ref true in
  List.iter
    (fun t ->
      progress t.label;
      let violations = ref 0 and total_ops = ref 0 in
      for k = 0 to traces - 1 do
        let len = 24 + (11 * k mod 200) in
        let trace = Trace.generate ~seed:(seed + k) ~len in
        total_ops := !total_ops + len;
        match run_trace t trace with
        | Ok () -> ()
        | Error _ ->
            incr violations;
            ok := false;
            let small, sf = shrink t trace in
            Fmt.pr "%s: FAILED (seed %d): %a@.minimal repro, %a@." t.label
              trace.Trace.seed pp_failure sf Trace.pp small
      done;
      Fmt.pr "  %-7s %4d traces %7d ops  %d violations@." t.label traces
        !total_ops !violations)
    targets_list;
  let plan = Fault.Plan.make [ Fault.Plan.Page_budget 64 ] in
  List.iter
    (fun t ->
      match fault_plan_injection t ~plan ~ops:2000 with
      | Ok (0, _) ->
          ok := false;
          Fmt.pr "  %-7s fault injection FAILED: never hit the page budget@."
            t.label
      | Ok (_, m) -> Fmt.pr "  %-7s fault injection: %s@." t.label m
      | Error m ->
          ok := false;
          Fmt.pr "  %-7s fault injection FAILED: %s@." t.label m)
    targets_list;
  (match selftest ~seed with
  | Ok (small, f) ->
      Fmt.pr "  self-test: off-by-one caught (%a; %d-op repro)@." pp_failure f
        (Array.length small.Trace.ops)
  | Error m ->
      ok := false;
      Fmt.pr "  self-test FAILED: %s@." m);
  !ok
