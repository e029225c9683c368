(* Tests for the heap sanitizer and the cross-allocator differential
   fuzz harness. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh () = Sim.Memory.create ~with_cache:false ()

let wrap_sun ?config () =
  let mem = fresh () in
  let san = Check.Sanitizer.wrap ?config (Alloc.Sun.create mem) in
  (mem, san, Check.Sanitizer.allocator san)

(* ------------------------------------------------------------------ *)
(* Sanitizer violations *)

let violation f =
  match f () with
  | _ -> None
  | exception Check.Sanitizer.Violation v -> Some v

let test_overflow_detected () =
  let mem, san, a = wrap_sun () in
  let p = a.Alloc.Allocator.malloc 10 in
  (* One word past the 12 usable bytes: the first rear-redzone word. *)
  Sim.Memory.store mem (p + 12) 0x42;
  match violation (fun () -> Check.Sanitizer.check san) with
  | Some (Check.Sanitizer.Overflow { user; _ }) -> check "overflowed block" p user
  | _ -> Alcotest.fail "expected Overflow"

let test_underflow_detected () =
  let mem, san, a = wrap_sun () in
  let p = a.Alloc.Allocator.malloc 10 in
  Sim.Memory.store mem (p - 4) 0x42;
  match violation (fun () -> Check.Sanitizer.check san) with
  | Some (Check.Sanitizer.Underflow { user; _ }) -> check "underflowed block" p user
  | _ -> Alcotest.fail "expected Underflow"

let test_overflow_reported_at_free () =
  let mem, _, a = wrap_sun () in
  let p = a.Alloc.Allocator.malloc 10 in
  Sim.Memory.store mem (p + 12) 0x42;
  match violation (fun () -> a.free p) with
  | Some (Check.Sanitizer.Overflow _) -> ()
  | _ -> Alcotest.fail "expected Overflow at free"

let test_use_after_free_detected () =
  let mem, san, a = wrap_sun () in
  let p = a.Alloc.Allocator.malloc 32 in
  a.free p;
  (* The block sits poisoned in quarantine; write through the dangling
     pointer. *)
  Sim.Memory.store mem (p + 8) 0x1234;
  match violation (fun () -> Check.Sanitizer.check san) with
  | Some (Check.Sanitizer.Use_after_free { user; addr; _ }) ->
      check "dangling block" p user;
      check "faulting word" (p + 8) addr
  | _ -> Alcotest.fail "expected Use_after_free"

let test_double_free_detected () =
  let _, _, a = wrap_sun () in
  let p = a.Alloc.Allocator.malloc 32 in
  a.free p;
  match violation (fun () -> a.free p) with
  | Some (Check.Sanitizer.Double_free q) -> check "same block" p q
  | _ -> Alcotest.fail "expected Double_free"

let test_invalid_free_detected () =
  let _, _, a = wrap_sun () in
  let p = a.Alloc.Allocator.malloc 32 in
  match violation (fun () -> a.free (p + 4)) with
  | Some (Check.Sanitizer.Invalid_free _) -> ()
  | _ -> Alcotest.fail "expected Invalid_free"

let test_quarantine_delays_reuse () =
  let _, san, a = wrap_sun () in
  let p = a.Alloc.Allocator.malloc 48 in
  a.free p;
  (* The underlying chunk is still held, so an identical request must
     not land on the same address until the quarantine is flushed. *)
  let q = a.malloc 48 in
  check_bool "no immediate reuse through quarantine" true (p <> q);
  Check.Sanitizer.flush san;
  Check.Sanitizer.check san

let test_quarantine_eviction_checks_poison () =
  let mem, _, a =
    wrap_sun ~config:{ Check.Sanitizer.default with quarantine = 2 } ()
  in
  let p = a.Alloc.Allocator.malloc 16 in
  a.free p;
  Sim.Memory.store mem p 7;
  (* Two more frees push [p] out of the 2-deep quarantine; the eviction
     re-check must catch the lost poison. *)
  let q = a.malloc 16 and r = a.malloc 16 in
  match
    violation (fun () ->
        a.free q;
        a.free r)
  with
  | Some (Check.Sanitizer.Use_after_free { user; _ }) -> check "evicted block" p user
  | _ -> Alcotest.fail "expected Use_after_free at eviction"

let test_sanitizer_over_every_allocator () =
  (* The same probe violates on every target: sun, bsd, lea, gc,
     region. *)
  List.iter
    (fun t ->
      let inst = t.Check.Fuzz.make Check.Sanitizer.default in
      let a = inst.Check.Fuzz.alloc in
      let p = a.Alloc.Allocator.malloc 20 in
      Sim.Memory.store inst.Check.Fuzz.mem (p + 20) 0x42;
      match violation (fun () -> Check.Sanitizer.check inst.Check.Fuzz.san) with
      | Some (Check.Sanitizer.Overflow _) -> ()
      | _ -> Alcotest.fail (t.Check.Fuzz.label ^ ": expected Overflow"))
    (Check.Fuzz.targets ())

(* ------------------------------------------------------------------ *)
(* Differential fuzzer *)

let test_all_targets_pass () =
  List.iter
    (fun t ->
      for k = 0 to 19 do
        let trace = Check.Trace.generate ~seed:(100 + k) ~len:(30 + (7 * k)) in
        match Check.Fuzz.run_trace t trace with
        | Ok () -> ()
        | Error f ->
            Alcotest.failf "%s seed %d: %a" t.Check.Fuzz.label (100 + k)
              Check.Fuzz.pp_failure f
      done)
    (Check.Fuzz.targets ())

let test_trace_generation_deterministic () =
  let t1 = Check.Trace.generate ~seed:42 ~len:200 in
  let t2 = Check.Trace.generate ~seed:42 ~len:200 in
  check_bool "same seed, same trace" true (t1 = t2);
  let t3 = Check.Trace.generate ~seed:43 ~len:200 in
  check_bool "different seed, different trace" true (t1 <> t3)

(* The deliberately injected bug of the acceptance criteria: an
   allocator returning blocks one word late must be caught (its
   blocks' last words land on the rear redzone), and shrinking must
   reduce the reproduction to a single allocation. *)
let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_off_by_one_caught_and_shrunk () =
  match Check.Fuzz.selftest ~seed:7 with
  | Error m -> Alcotest.fail m
  | Ok (small, f) ->
      check "shrunk to a single op" 1 (Array.length small.Check.Trace.ops);
      check_bool "failure is an overflow" true
        (contains f.Check.Fuzz.reason "overflow")

let test_shrink_rejects_passing_trace () =
  let trace = Check.Trace.generate ~seed:5 ~len:40 in
  match Check.Fuzz.shrink (Check.Fuzz.find_target "sun") trace with
  | _ -> Alcotest.fail "expected Invalid_argument for a passing trace"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let test_fault_injection_all_targets () =
  let plan = Fault.Plan.make [ Fault.Plan.Page_budget 64 ] in
  List.iter
    (fun t ->
      match Check.Fuzz.fault_plan_injection t ~plan ~ops:2000 with
      | Ok (0, _) -> Alcotest.fail (t.Check.Fuzz.label ^ ": never hit the page budget")
      | Ok _ -> ()
      | Error m -> Alcotest.fail (t.Check.Fuzz.label ^ ": " ^ m))
    (Check.Fuzz.targets ())

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "check"
    [
      ( "sanitizer",
        [
          tc "overflow" `Quick test_overflow_detected;
          tc "underflow" `Quick test_underflow_detected;
          tc "overflow at free" `Quick test_overflow_reported_at_free;
          tc "use-after-free" `Quick test_use_after_free_detected;
          tc "double free" `Quick test_double_free_detected;
          tc "invalid free" `Quick test_invalid_free_detected;
          tc "quarantine delays reuse" `Quick test_quarantine_delays_reuse;
          tc "eviction re-checks poison" `Quick
            test_quarantine_eviction_checks_poison;
          tc "works over every allocator" `Quick
            test_sanitizer_over_every_allocator;
        ] );
      ( "fuzz",
        [
          tc "trace generation deterministic" `Quick
            test_trace_generation_deterministic;
          tc "all targets pass 20 traces" `Quick test_all_targets_pass;
          tc "off-by-one caught and shrunk" `Quick
            test_off_by_one_caught_and_shrunk;
          tc "shrink rejects passing traces" `Quick
            test_shrink_rejects_passing_trace;
          tc "fault injection on all targets" `Quick
            test_fault_injection_all_targets;
        ] );
    ]
