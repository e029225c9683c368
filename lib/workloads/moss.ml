type params = {
  ndocs : int;
  words_per_doc : int;
  kgram : int;
  window : int;
  plagiarised_pairs : int;
  query_rounds : int;
  optimized : bool;
  seed : int;
}

let default_params =
  {
    ndocs = 60;
    words_per_doc = 400;
    kgram = 8;
    window = 16;
    plagiarised_pairs = 5;
    query_rounds = 2;
    optimized = false;
    seed = 17;
  }

let large_params = { default_params with query_rounds = 6; plagiarised_pairs = 8 }

type outcome = {
  fingerprints : int;
  matches : int;
  best_pair : int * int;
  checksum : int;
}

(* ------------------------------------------------------------------ *)
(* Document generation: word soup per document, with shared passages
   copied between plagiarised pairs. *)

let generate_docs (params : params) =
  let rng = Sim.Rng.create params.seed in
  let word d = Printf.sprintf "tok%d_%d" d (Sim.Rng.int rng 120) in
  let docs =
    Array.init params.ndocs (fun d ->
        let buf = Buffer.create 2048 in
        for _ = 1 to params.words_per_doc do
          Buffer.add_string buf (word d);
          Buffer.add_char buf ' '
        done;
        Buffer.contents buf)
  in
  (* Copy a passage from doc a into doc b for each plagiarised pair. *)
  for p = 0 to params.plagiarised_pairs - 1 do
    let a = 2 * p and b = (2 * p) + 1 in
    if b < params.ndocs then begin
      let src = docs.(a) in
      let len = String.length src / 3 in
      let passage = String.sub src 0 len in
      docs.(b) <- String.sub docs.(b) 0 (String.length docs.(b) - len) ^ passage
    end
  done;
  docs

(* ------------------------------------------------------------------ *)
(* Storage.  Frame slots: 0 = small-object region, 1 = large-buffer
   region (same region when not optimized). *)

type storage = {
  small_obj : Regions.Cleanup.layout -> int;
  small_raw : int -> int;
  small_arr : n:int -> Regions.Cleanup.layout -> int;
  large_raw : int -> int;
  ptr : addr:int -> int -> unit;
  finish : unit -> unit;
}

let posting_layout = Regions.Cleanup.layout ~size_bytes:16 ~ptr_offsets:[ 12 ]
(* posting: [hash][doc][pos][next] *)

let bucket_cell = Regions.Cleanup.layout ~size_bytes:4 ~ptr_offsets:[ 0 ]

let region_storage api fr ~optimized =
  let small = Api.newregion api in
  Api.set_local_ptr api fr 0 small;
  let large = if optimized then Api.newregion api else small in
  Api.set_local_ptr api fr 1 large;
  {
    small_obj = (fun l -> Api.ralloc api small l);
    small_raw = (fun b -> Api.rstralloc api small b);
    small_arr = (fun ~n l -> Api.rarrayalloc api small ~n l);
    large_raw = (fun b -> Api.rstralloc api large b);
    ptr = (fun ~addr v -> Api.store_ptr api ~addr v);
    finish =
      (fun () ->
        if optimized then ignore (Api.deleteregion api fr 1)
        else Api.set_local_ptr api fr 1 0;
        ignore (Api.deleteregion api fr 0));
  }

let malloc_storage api _fr =
  let all = ref [] in
  Api.add_roots api (fun f -> List.iter f !all);
  let alloc bytes =
    let p = Api.malloc api bytes in
    all := p :: !all;
    p
  in
  let clear_obj (l : Regions.Cleanup.layout) =
    let p = alloc l.Regions.Cleanup.size_bytes in
    Api.clear api p l.Regions.Cleanup.size_bytes;
    p
  in
  {
    small_obj = clear_obj;
    small_raw = alloc;
    small_arr =
      (fun ~n l ->
        let stride = Regions.Cleanup.stride l in
        let p = alloc (n * stride) in
        Api.clear api p (n * stride);
        p);
    large_raw = alloc;
    ptr = (fun ~addr v -> Api.store api addr v);
    finish =
      (fun () ->
        List.iter (Api.free api) !all;
        all := []);
  }

(* ------------------------------------------------------------------ *)
(* Winnowing *)

(* Iterate the winnowing fingerprints of the document stored at
   [buf..buf+len): positions of window-minimum k-gram hashes. *)
let winnow api ~kgram ~window ~buf ~len f =
  if len > kgram then begin
    let nh = len - kgram + 1 in
    (* Rolling polynomial hash over simulated bytes. *)
    let b = 257 and m = 0xFFFFFF in
    let pow = ref 1 in
    for _ = 2 to kgram do
      pow := !pow * b mod m
    done;
    let h = ref 0 in
    for i = 0 to kgram - 1 do
      h := ((!h * b) + Api.load_byte api (buf + i)) mod m
    done;
    let hashes = Array.make nh 0 in
    hashes.(0) <- !h;
    for i = 1 to nh - 1 do
      Api.work api 6;
      h :=
        (((!h - (Api.load_byte api (buf + i - 1) * !pow mod m) + (m * b)) mod m * b)
        + Api.load_byte api (buf + i + kgram - 1))
        mod m;
      hashes.(i) <- !h
    done;
    (* Select the rightmost minimum of each window; emit when it
       changes (standard winnowing). *)
    let last = ref (-1) in
    for w = 0 to nh - window do
      Api.work api window;
      let best = ref w in
      for i = w to w + window - 1 do
        if hashes.(i) <= hashes.(!best) then best := i
      done;
      if !best <> !last then begin
        last := !best;
        f hashes.(!best) !best
      end
    done
  end

(* ------------------------------------------------------------------ *)

let nbuckets = 512

let run api (params : params) =
  let docs = generate_docs params in
  Api.with_frame api ~nslots:2 ~ptr_slots:[ 0; 1 ] (fun fr ->
      let st =
        match Api.kind api with
        | `Region -> region_storage api fr ~optimized:params.optimized
        | `Malloc -> malloc_storage api fr
      in
      let index = st.small_arr ~n:nbuckets bucket_cell in
      let fingerprints = ref 0 in
      (* Per-document fingerprint vectors: [count][hash...] *)
      let doc_fps = Array.make params.ndocs 0 in
      Api.phase api "index" (fun () ->
      Array.iteri
        (fun d text ->
          let len = String.length text in
          (* The large, infrequently accessed object... *)
          let buf = st.large_raw len in
          Api.store_bytes api buf text;
          (* ...interleaved with small, frequently accessed ones. *)
          let fps = ref [] in
          let nfp = ref 0 in
          Api.site api "winnow" (fun () ->
          winnow api ~kgram:params.kgram ~window:params.window ~buf ~len
            (fun h pos ->
              incr fingerprints;
              incr nfp;
              fps := h :: !fps;
              let p = st.small_obj posting_layout in
              Api.store api p h;
              Api.store api (p + 4) d;
              Api.store api (p + 8) pos;
              let bucket = index + (h mod nbuckets * 4) in
              let head = Api.load api bucket in
              if head <> 0 then st.ptr ~addr:(p + 12) head;
              st.ptr ~addr:bucket p));
          (* The per-document fingerprint vector is re-read on every
             query round: it belongs with the small, frequently
             accessed objects, away from the big text buffers. *)
          let vec = st.small_raw (4 + (4 * !nfp)) in
          Api.store api vec !nfp;
          Api.store_block api (vec + 4) (Array.of_list (List.rev !fps));
          doc_fps.(d) <- vec)
        docs);
      (* Query phase: repeatedly match every document against the
         index, walking posting chains (the frequently-accessed small
         objects). *)
      let matrix = Array.make_matrix params.ndocs params.ndocs 0 in
      let matches = ref 0 in
      Api.phase api "query" (fun () ->
      for _ = 1 to params.query_rounds do
        Array.iteri
          (fun d vec ->
            let n = Api.load api vec in
            Api.site api "chain-walk" (fun () ->
            for i = 0 to n - 1 do
              let h = Api.load api (vec + 4 + (i * 4)) in
              let rec chain p =
                if p <> 0 then begin
                  Api.work api 2;
                  if Api.load api p = h then begin
                    let d' = Api.load api (p + 4) in
                    if d' <> d then begin
                      incr matches;
                      matrix.(d).(d') <- matrix.(d).(d') + 1
                    end
                  end;
                  chain (Api.load api (p + 12))
                end
              in
              chain (Api.load api (index + (h mod nbuckets * 4)))
            done))
          doc_fps
      done);
      (* Best pair + checksum. *)
      let best = ref (0, 0) and best_count = ref (-1) in
      let checksum = ref 0 in
      for a = 0 to params.ndocs - 1 do
        for b = 0 to params.ndocs - 1 do
          checksum := ((!checksum * 31) + matrix.(a).(b)) land 0xFFFFFF;
          if a < b && matrix.(a).(b) + matrix.(b).(a) > !best_count then begin
            best_count := matrix.(a).(b) + matrix.(b).(a);
            best := (a, b)
          end
        done
      done;
      st.finish ();
      {
        fingerprints = !fingerprints;
        matches = !matches;
        best_pair = !best;
        checksum = !checksum;
      })
