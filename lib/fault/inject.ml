type t = {
  mem : Sim.Memory.t;
  plan : Plan.t;
  pick : u:float -> bit:int -> (int * int) option;
  mutable events : int;
  mutable denials : int;
  mutable flips : int;
  mutable pages_granted : int;
  mutable pending : Plan.flip list;
  mutable applied : (int * int) list;
}

let page_bytes mem = (Sim.Memory.machine mem).Sim.Machine.page_bytes

(* Process-wide mirrors of the per-injector counters: the injector's
   own fields feed the per-cell fault report, the registry series
   aggregate across every planned cell of the process (what
   [repro serve --metrics-out] exports). *)
let m_events =
  Obs.Metrics.counter Obs.Metrics.default "fault_page_grant_events_total"

let m_denials = Obs.Metrics.counter Obs.Metrics.default "fault_denials_total"
let m_flips = Obs.Metrics.counter Obs.Metrics.default "fault_bit_flips_total"

(* Uniform word over the mapped span [page_bytes, limit). *)
let default_pick mem ~u ~bit =
  let lo = page_bytes mem and hi = Sim.Memory.limit mem in
  let words = (hi - lo) / 4 in
  if words <= 0 then None
  else
    let w = min (words - 1) (int_of_float (u *. float_of_int words)) in
    Some (lo + (w * 4), bit)

let install ?pick ~plan mem =
  let t =
    {
      mem;
      plan;
      pick = (match pick with Some p -> p | None -> default_pick mem);
      events = 0;
      denials = 0;
      flips = 0;
      pages_granted = 0;
      pending = [];
      applied = [];
    }
  in
  Sim.Memory.set_oom_hook mem
    (Some
       (fun pages ->
         t.events <- t.events + 1;
         Obs.Metrics.inc m_events;
         let d =
           Plan.decision plan ~event:t.events ~pages
             ~pages_before:t.pages_granted
         in
         if d.Plan.deny then begin
           t.denials <- t.denials + 1;
           Obs.Metrics.inc m_denials;
           t.pending <- [];
           false
         end
         else begin
           t.pages_granted <- t.pages_granted + pages;
           t.pending <- d.Plan.flips;
           true
         end));
  Sim.Memory.set_corrupt_hook mem
    (Some
       (fun () ->
         let flips = t.pending in
         t.pending <- [];
         List.iter
           (fun { Plan.u; bit } ->
             match t.pick ~u ~bit with
             | Some (addr, bit) ->
                 Sim.Memory.flip_bit mem addr bit;
                 t.flips <- t.flips + 1;
                 Obs.Metrics.inc m_flips;
                 t.applied <- (addr, bit) :: t.applied
             | None -> ())
           flips));
  t

let uninstall t =
  Sim.Memory.set_oom_hook t.mem None;
  Sim.Memory.set_corrupt_hook t.mem None

let with_plan ?pick ~plan mem f =
  let t = install ?pick ~plan mem in
  Fun.protect ~finally:(fun () -> uninstall t) (fun () -> f t)

let events t = t.events
let denials t = t.denials
let flips t = t.flips
let pages_granted t = t.pages_granted
let applied t = t.applied

let summary t =
  Fmt.str "%d events, %d denials, %d flips, %d pages granted" t.events
    t.denials t.flips t.pages_granted
