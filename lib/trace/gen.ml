(* Deterministic synthetic trace generator: valid binary traces
   straight from parameterised size/lifetime distributions, no
   workload execution.  Everything is integer arithmetic over splitmix
   streams (Sim.Rng) — no libm — so the same spec produces the same
   bytes on every host, which is what lets generated traces live in
   the content-addressed cache without a build-id key. *)

(* Bump whenever the generator's byte output changes for a fixed spec
   (also covers the trace format version). *)
let generation = "v2"

type size_dist =
  | Table2
  | Uniform of { lo : int; hi : int }
  | Heavy of { lo : int; cap : int }

type lifetime =
  | Lifo of { batch : int }
  | Exp of { mean : int }
  | Long of { pct : int; mean : int }

type t = {
  objects : int;
  variant : string;
  sizes : size_dist;
  lifetime : lifetime;
  stores : int;
  seed : int;
}

let default =
  {
    objects = 1_000_000;
    variant = "malloc";
    sizes = Table2;
    lifetime = Lifo { batch = 256 };
    stores = 1;
    seed = 1;
  }

(* ------------------------------------------------------------------ *)
(* Canonical spec string: the cache key and the CLI syntax. *)

let size_to_string = function
  | Table2 -> "table2"
  | Uniform { lo; hi } -> Printf.sprintf "uniform:%d:%d" lo hi
  | Heavy { lo; cap } -> Printf.sprintf "heavy:%d:%d" lo cap

let lifetime_to_string = function
  | Lifo { batch } -> Printf.sprintf "lifo:%d" batch
  | Exp { mean } -> Printf.sprintf "exp:%d" mean
  | Long { pct; mean } -> Printf.sprintf "long:%d:%d" pct mean

let to_string p =
  Printf.sprintf "n=%d,variant=%s,size=%s,life=%s,stores=%d,seed=%d" p.objects
    p.variant (size_to_string p.sizes)
    (lifetime_to_string p.lifetime)
    p.stores p.seed

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let pint what s =
  match int_of_string_opt s with Some n -> n | None -> bad "%s: not an integer (%s)" what s

let validate p =
  if p.objects < 1 then bad "n must be at least 1";
  if p.stores < 0 then bad "stores must be non-negative";
  (match p.variant with
  | "malloc" | "region" -> ()
  | v -> bad "unknown variant %s (malloc or region)" v);
  (match p.sizes with
  | Table2 -> ()
  | Uniform { lo; hi } ->
      if lo < 4 || hi < lo then bad "uniform sizes need 4 <= lo <= hi"
  | Heavy { lo; cap } ->
      if lo < 4 || cap < lo then bad "heavy sizes need 4 <= lo <= cap");
  (match p.lifetime with
  | Lifo { batch } -> if batch < 1 then bad "lifo batch must be at least 1"
  | Exp { mean } -> if mean < 1 then bad "exp mean must be at least 1"
  | Long { pct; mean } ->
      if pct < 0 || pct > 100 then bad "long pct must be 0..100";
      if mean < 1 then bad "long mean must be at least 1");
  p

let parse_size s =
  match String.split_on_char ':' s with
  | [ "table2" ] -> Table2
  | [ "uniform"; lo; hi ] ->
      Uniform { lo = pint "uniform lo" lo; hi = pint "uniform hi" hi }
  | [ "heavy"; lo; cap ] ->
      Heavy { lo = pint "heavy lo" lo; cap = pint "heavy cap" cap }
  | _ -> bad "unknown size distribution %s (table2, uniform:LO:HI, heavy:LO:CAP)" s

let parse_lifetime s =
  match String.split_on_char ':' s with
  | [ "lifo"; b ] -> Lifo { batch = pint "lifo batch" b }
  | [ "exp"; m ] -> Exp { mean = pint "exp mean" m }
  | [ "long"; pct; m ] ->
      Long { pct = pint "long pct" pct; mean = pint "long mean" m }
  | _ ->
      bad "unknown lifetime distribution %s (lifo:BATCH, exp:MEAN, long:PCT:MEAN)"
        s

let of_string s =
  match
    List.fold_left
      (fun p kv ->
        let kv = String.trim kv in
        if kv = "" then p
        else
          match String.index_opt kv '=' with
          | None -> bad "expected KEY=VALUE, got %s" kv
          | Some i -> (
              let k = String.sub kv 0 i
              and v = String.sub kv (i + 1) (String.length kv - i - 1) in
              match k with
              | "n" -> { p with objects = pint "n" v }
              | "variant" -> { p with variant = v }
              | "size" -> { p with sizes = parse_size v }
              | "life" -> { p with lifetime = parse_lifetime v }
              | "stores" -> { p with stores = pint "stores" v }
              | "seed" -> { p with seed = pint "seed" v }
              | _ -> bad "unknown key %s" k))
      default
      (String.split_on_char ',' s)
    |> validate
  with
  | p -> Ok p
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Integer-only sampling.

   [Sim.Rng.float] would drag host libm rounding into the byte stream,
   so the exponential and heavy-tail draws are built from a
   fixed-point -log2: normalise the uniform draw to [1, 2) and
   approximate log2 of the mantissa piecewise-linearly (max error
   0.086 bits — invisible next to sampling noise, and perfectly
   reproducible). *)

let msb x =
  (* index of the highest set bit; x in [1, 2^30) *)
  let r = ref 0 and x = ref x in
  if !x >= 1 lsl 16 then (r := !r + 16; x := !x lsr 16);
  if !x >= 1 lsl 8 then (r := !r + 8; x := !x lsr 8);
  if !x >= 1 lsl 4 then (r := !r + 4; x := !x lsr 4);
  if !x >= 1 lsl 2 then (r := !r + 2; x := !x lsr 2);
  if !x >= 2 then incr r;
  !r

(* -log2 (x / 2^30) in 16.16 fixed point, for x in [1, 2^30). *)
let neg_log2_fx x =
  let m = msb x in
  let frac_fx =
    let f = x - (1 lsl m) in
    if m >= 16 then f lsr (m - 16) else f lsl (16 - m)
  in
  ((30 - m) lsl 16) - frac_fx

(* Exponential with the given mean, in [1, ...):
   mean * -ln u = mean * (-log2 u) * ln 2, all in 16.16. *)
let exp_sample rng ~mean =
  let x = 1 + Sim.Rng.int rng ((1 lsl 30) - 1) in
  let nln = (neg_log2_fx x * 45426) lsr 16 in
  1 + ((mean * nln) lsr 16)

let table2_sample rng =
  (* The Table-2-fitted mix Check.Trace uses for fuzz traces: mostly
     small objects, a thin large tail. *)
  let p = Sim.Rng.int rng 100 in
  if p < 50 then 4 + Sim.Rng.int rng 60
  else if p < 80 then 64 + Sim.Rng.int rng 192
  else if p < 95 then 256 + Sim.Rng.int rng 768
  else if p < 99 then 1024 + Sim.Rng.int rng 3072
  else 4096 + Sim.Rng.int rng 16384

let heavy_sample rng ~lo ~cap =
  (* P(size >= lo * 2^k) = 2^-k: a Pareto-style tail, capped. *)
  let k = ref 0 in
  while !k < 24 && Sim.Rng.bool rng do incr k done;
  let base = lo lsl !k in
  min (base + Sim.Rng.int rng (max 1 base)) cap

let size_sampler sizes rng =
  match sizes with
  | Table2 -> fun () -> table2_sample rng
  | Uniform { lo; hi } -> fun () -> lo + Sim.Rng.int rng (hi - lo + 1)
  | Heavy { lo; cap } -> fun () -> heavy_sample rng ~lo ~cap

(* ------------------------------------------------------------------ *)
(* Id pool: the recycling discipline Replay mirrors — freed ids are
   reused LIFO (newest freed first), fresh ids only when the free
   stack is empty.  [slots] is the live high-water mark: the replay
   table size recorded in the trailer. *)

module Pool = struct
  type t = { mutable free : int array; mutable top : int; mutable fresh : int }

  let create () = { free = Array.make 1024 0; top = 0; fresh = 0 }

  let alloc p =
    if p.top > 0 then begin
      p.top <- p.top - 1;
      p.free.(p.top)
    end
    else begin
      let id = p.fresh in
      p.fresh <- id + 1;
      id
    end

  let release p id =
    if p.top = Array.length p.free then begin
      let b = Array.make (2 * p.top) 0 in
      Array.blit p.free 0 b 0 p.top;
      p.free <- b
    end;
    p.free.(p.top) <- id;
    p.top <- p.top + 1

  let slots p = max p.fresh 1
end

(* Min-heap of (death step, id) for the exponential lifetimes. *)
module Dheap = struct
  type t = { mutable key : int array; mutable id : int array; mutable n : int }

  let create () = { key = Array.make 1024 0; id = Array.make 1024 0; n = 0 }

  let push h k v =
    if h.n = Array.length h.key then begin
      let bk = Array.make (2 * h.n) 0 and bi = Array.make (2 * h.n) 0 in
      Array.blit h.key 0 bk 0 h.n;
      Array.blit h.id 0 bi 0 h.n;
      h.key <- bk;
      h.id <- bi
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.key.(!i) <- k;
    h.id.(!i) <- v;
    while !i > 0 && h.key.((!i - 1) / 2) > h.key.(!i) do
      let p = (!i - 1) / 2 in
      let tk = h.key.(p) and ti = h.id.(p) in
      h.key.(p) <- h.key.(!i);
      h.id.(p) <- h.id.(!i);
      h.key.(!i) <- tk;
      h.id.(!i) <- ti;
      i := p
    done

  let min_key h = if h.n = 0 then max_int else h.key.(0)

  let pop h =
    let v = h.id.(0) in
    h.n <- h.n - 1;
    h.key.(0) <- h.key.(h.n);
    h.id.(0) <- h.id.(h.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.n && h.key.(l) < h.key.(!s) then s := l;
      if r < h.n && h.key.(r) < h.key.(!s) then s := r;
      if !s = !i then continue := false
      else begin
        let tk = h.key.(!s) and ti = h.id.(!s) in
        h.key.(!s) <- h.key.(!i);
        h.id.(!s) <- h.id.(!i);
        h.key.(!i) <- tk;
        h.id.(!i) <- ti;
        i := !s
      end
    done;
    v
end

(* ------------------------------------------------------------------ *)
(* Emission *)

(* Pointer stores fatten the trace towards realistic record mixes (and
   make the bounded-memory gate meaningful: the file is much larger
   than the replay's working set).  The stored value is always the
   null [Raw 0]: a null store is barrier-neutral under the region
   columns — no refcount movement — so deleteregion outcomes stay
   deterministic. *)
let emit_stores w rng ~stores ~id ~size =
  for _ = 1 to stores do
    let words = size lsr 2 in
    let delta = if words <= 1 then 0 else 4 * Sim.Rng.int rng words in
    Format.emit_store_ptr w ~addr:(Format.Obj (id, delta)) ~v:(Format.Raw 0)
  done

let gen_malloc w p ~rng_size ~rng_life ~rng_store ~opool =
  let size = size_sampler p.sizes rng_size in
  let alloc () =
    let sz = size () in
    let id = Pool.alloc opool in
    Format.emit_malloc w ~size:sz;
    emit_stores w rng_store ~stores:p.stores ~id ~size:sz;
    id
  in
  let free id =
    Format.emit_free w ~id;
    Pool.release opool id
  in
  match p.lifetime with
  | Lifo { batch } ->
      let emitted = ref 0 in
      while !emitted < p.objects do
        let b =
          min
            (1 + (batch / 2) + Sim.Rng.int rng_life batch)
            (p.objects - !emitted)
        in
        let ids = ref [] in
        for _ = 1 to b do
          ids := alloc () :: !ids;
          incr emitted
        done;
        (* newest first: pure LIFO *)
        List.iter free !ids
      done
  | Exp { mean } | Long { mean; _ } ->
      let immortal =
        match p.lifetime with
        | Long { pct; _ } -> fun () -> Sim.Rng.int rng_life 100 < pct
        | _ -> fun () -> false
      in
      let deaths = Dheap.create () in
      for t = 0 to p.objects - 1 do
        while Dheap.min_key deaths <= t do
          free (Dheap.pop deaths)
        done;
        let id = alloc () in
        if not (immortal ()) then
          Dheap.push deaths (t + exp_sample rng_life ~mean) id
      done;
      (* Drain the transients in death order; the long-lived fraction
         stays allocated to the end of the trace, as in a real
         program's permanent data. *)
      while Dheap.min_key deaths < max_int do
        free (Dheap.pop deaths)
      done

(* Region-structured variant, mirroring the workloads' idiom (and the
   bench micro): a frame with one pointer slot holds each region's
   handle, so the handle is the region's only counted reference and
   [deleteregion] deterministically succeeds — the same pattern the
   safe column's refcount scan is designed for.  Lifetimes map to
   objects-per-region; the long-lived fraction allocates into a
   base region deleted at the end. *)
let gen_region w p ~rng_size ~rng_life ~rng_store ~opool ~rpool =
  let size = size_sampler p.sizes rng_size in
  let alloc_into rid =
    let sz = size () in
    let id = Pool.alloc opool in
    Format.emit_rstralloc w ~rid ~size:sz;
    emit_stores w rng_store ~stores:p.stores ~id ~size:sz;
    id
  in
  let objs_per_region () =
    match p.lifetime with
    | Lifo { batch } -> 1 + (batch / 2) + Sim.Rng.int rng_life batch
    | Exp { mean } | Long { mean; _ } -> exp_sample rng_life ~mean
  in
  let long_pct = match p.lifetime with Long { pct; _ } -> pct | _ -> 0 in
  Format.emit w (Format.Frame_push { nslots = 1; ptr_slots = [ 0 ] });
  let base =
    if long_pct > 0 then begin
      let rid = Pool.alloc rpool in
      Format.emit_newregion w;
      Format.emit_set_local_ptr w ~frame:0 ~slot:0 ~v:(Format.Reg rid);
      Some (rid, ref [])
    end
    else None
  in
  let emitted = ref 0 in
  while !emitted < p.objects do
    let m = min (objs_per_region ()) (p.objects - !emitted) in
    Format.emit w (Format.Frame_push { nslots = 1; ptr_slots = [ 0 ] });
    let rid = Pool.alloc rpool in
    Format.emit_newregion w;
    Format.emit_set_local_ptr w ~frame:1 ~slot:0 ~v:(Format.Reg rid);
    let ids = ref [] in
    for _ = 1 to m do
      (match base with
      | Some (brid, bids) when Sim.Rng.int rng_life 100 < long_pct ->
          bids := alloc_into brid :: !bids
      | _ -> ids := alloc_into rid :: !ids);
      incr emitted
    done;
    Format.emit_deleteregion w ~rid ~frame:1 ~slot:0 ~ok:true;
    (* Mirror Replay: the deleted region's ids return newest-first,
       then the rid itself. *)
    List.iter (Pool.release opool) !ids;
    Pool.release rpool rid;
    Format.emit w Format.Frame_pop
  done;
  (match base with
  | None -> ()
  | Some (rid, bids) ->
      Format.emit_deleteregion w ~rid ~frame:0 ~slot:0 ~ok:true;
      List.iter (Pool.release opool) !bids;
      Pool.release rpool rid);
  Format.emit w Format.Frame_pop

let header p =
  {
    Format.workload = "gen";
    variant = p.variant;
    mode = Workloads.Api.mode_name (Record.recording_mode p.variant);
    (* The canonical spec rides in the size field: self-describing
       traces, and a cheap validity check for cache slots. *)
    size = to_string p;
    seed = p.seed;
    build_id = Results.Cache.current_build_id ();
  }

let generate ~out p =
  let p = validate p in
  let w = Format.create_writer ~path:out (header p) in
  match
    (* Independent streams per concern, so e.g. the store knob cannot
       perturb the size sequence. *)
    let rng_size = Sim.Rng.create (p.seed * 3 + 1)
    and rng_life = Sim.Rng.create (p.seed * 3 + 2)
    and rng_store = Sim.Rng.create (p.seed * 3 + 3) in
    let opool = Pool.create () and rpool = Pool.create () in
    (match p.variant with
    | "malloc" -> gen_malloc w p ~rng_size ~rng_life ~rng_store ~opool
    | "region" -> gen_region w p ~rng_size ~rng_life ~rng_store ~opool ~rpool
    | v -> bad "unknown variant %s" v);
    Format.set_recycled_slots w ~objects:(Pool.slots opool)
      ~regions:(Pool.slots rpool);
    Format.commit w
      ~summary:
        (Printf.sprintf "generated: %d objects, %d live-object slots"
           p.objects (Pool.slots opool))
  with
  | () -> ()
  | exception e ->
      Format.abort w;
      raise e

(* A pre-existing slot is reused only if it opens cleanly and its
   header carries exactly this spec (the address already pins it, but
   a hash collision or torn write must mean "regenerate", never
   "replay garbage"). *)
let valid_slot path spec =
  match Format.open_file path with
  | Error _ -> false
  | Ok rd ->
      let hdr = Format.header rd in
      Format.close rd;
      hdr.Format.workload = "gen" && hdr.Format.size = spec

let ensure ?cache ?(progress = fun _ -> ()) p =
  let p = validate p in
  let spec = to_string p in
  match cache with
  | None ->
      let out =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "repro-gen-%s.trace" (Results.Cache.fnv1a64 spec))
      in
      if not (valid_slot out spec) then begin
        progress (Printf.sprintf "generating %s ..." spec);
        generate ~out p
      end;
      out
  | Some cache ->
      let out = Results.Cache.gen_trace_path cache ~gen:generation ~spec in
      if not (valid_slot out spec) then begin
        progress (Printf.sprintf "generating %s ..." spec);
        generate ~out p
      end;
      out
