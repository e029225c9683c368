type params = { n : string; bound : int; max_iterations : int; chunk : int }

let default_params =
  (* 1000003 * 2000003 *)
  { n = "2000009000009"; bound = 1500; max_iterations = 30_000; chunk = 16 }

let medium_params =
  (* 1000003651 * 2000000603 *)
  { n = "2000007905002201553"; bound = 6000; max_iterations = 200_000; chunk = 16 }

type outcome = { factor : string option; iterations : int; relations : int }

(* ------------------------------------------------------------------ *)
(* Storage strategies: the two variants of the benchmark. *)

type storage = {
  temp : Bignum.ctx;  (* current chunk; [alloc] indirects via [rotate] *)
  sol : Bignum.ctx;  (* solution storage, lives to the end *)
  rotate : int list -> int list;
      (* end the chunk: copy the survivors into fresh temporary
         storage and dispose of the old chunk *)
  sol_raw : int -> int;  (* bytes -> pointer-free solution storage *)
  sol_node : unit -> int;  (* relation node: 4 pointer words *)
  node_set : int -> int -> unit;  (* pointer store into a node field *)
  set_head : int -> unit;  (* relations list head (a root the scanner sees) *)
  get_head : unit -> int;
  finish : unit -> unit;
}

let node_layout =
  (* { bignum @a; bits @row; bytes @exps; node @next } *)
  Regions.Cleanup.layout ~size_bytes:16 ~ptr_offsets:[ 0; 4; 8; 12 ]

(* Region variant.  Frame slots: 0 = solution region, 1 = temporary
   region, 2 = scratch for the replacement region, 3 = relations head. *)
let region_storage api fr =
  let sol_r = Api.newregion api in
  Api.set_local_ptr api fr 0 sol_r;
  let tmp = Api.newregion api in
  Api.set_local_ptr api fr 1 tmp;
  let temp_alloc words = Api.rstralloc api (Api.get_local fr 1) (words * 4) in
  let sol_alloc words = Api.rstralloc api sol_r (words * 4) in
  let temp = { Bignum.api; alloc = temp_alloc } in
  let sol = { Bignum.api; alloc = sol_alloc } in
  let rotate survivors =
    let fresh = Api.newregion api in
    Api.set_local_ptr api fr 2 fresh;
    let ctx = { Bignum.api; alloc = (fun w -> Api.rstralloc api fresh (w * 4)) } in
    let copies = List.map (Bignum.copy ctx) survivors in
    let deleted = Api.deleteregion api fr 1 in
    assert deleted;
    Api.set_local_ptr api fr 1 fresh;
    Api.set_local_ptr api fr 2 0;
    copies
  in
  {
    temp;
    sol;
    rotate;
    sol_raw = (fun bytes -> Api.rstralloc api sol_r bytes);
    sol_node = (fun () -> Api.ralloc api sol_r node_layout);
    node_set = (fun addr v -> Api.store_ptr api ~addr v);
    set_head = (fun v -> Api.set_local_ptr api fr 3 v);
    get_head = (fun () -> Api.get_local fr 3);
    finish =
      (fun () ->
        ignore (Api.deleteregion api fr 1);
        Api.set_local_ptr api fr 3 0;
        let ok = Api.deleteregion api fr 0 in
        assert ok);
  }

(* malloc/free variant: the temporaries of each chunk are freed
   explicitly when the chunk is rotated (the original cfrac counted
   references; we know the chunk lifetimes statically). *)
let malloc_storage api fr =
  let chunk = ref [] in
  let sols = ref [] in
  (* Under the conservative collector these lists are the live set the
     C version would hold in locals: register them as roots. *)
  Api.add_roots api (fun f ->
      List.iter f !chunk;
      List.iter f !sols);
  let temp_alloc words =
    let p = Api.malloc api (words * 4) in
    chunk := p :: !chunk;
    p
  in
  let sol_alloc words =
    let p = Api.malloc api (words * 4) in
    sols := p :: !sols;
    p
  in
  let temp = { Bignum.api; alloc = temp_alloc } in
  let sol = { Bignum.api; alloc = sol_alloc } in
  let rotate survivors =
    let old = !chunk in
    chunk := [];
    let copies = List.map (Bignum.copy temp) survivors in
    List.iter (Api.free api) old;
    copies
  in
  {
    temp;
    sol;
    rotate;
    sol_raw =
      (fun bytes ->
        let p = Api.malloc api bytes in
        sols := p :: !sols;
        p);
    sol_node =
      (fun () ->
        let p = Api.malloc api 16 in
        sols := p :: !sols;
        (* malloc does not clear; the node's fields are all assigned *)
        p);
    node_set = (fun addr v -> Api.store api addr v);
    set_head = (fun v -> Api.set_local api fr 3 v);
    get_head = (fun () -> Api.get_local fr 3);
    finish =
      (fun () ->
        List.iter (Api.free api) !chunk;
        List.iter (Api.free api) !sols;
        chunk := [];
        sols := []);
  }

(* ------------------------------------------------------------------ *)
(* Small-integer number theory (factor-base setup) *)

let sieve_primes bound =
  let comp = Bytes.make (bound + 1) '\000' in
  let primes = ref [] in
  for p = 2 to bound do
    if Bytes.get comp p = '\000' then begin
      primes := p :: !primes;
      let q = ref (p * p) in
      while !q <= bound do
        Bytes.set comp !q '\001';
        q := !q + p
      done
    end
  done;
  List.rev !primes

let powmod_int b e m =
  let rec go b e acc =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then acc * b mod m else acc in
      go (b * b mod m) (e lsr 1) acc
    end
  in
  go (b mod m) e 1

(* Legendre symbol (a/p) for odd prime p: 1, p-1 (= -1), or 0. *)
let legendre a p = powmod_int a ((p - 1) / 2) p

(* ------------------------------------------------------------------ *)
(* The factorisation *)

let rec run api params =
  Api.with_frame api ~nslots:4 ~ptr_slots:[ 0; 1; 2; 3 ] (fun fr ->
      let st =
        match Api.kind api with
        | `Region -> region_storage api fr
        | `Malloc -> malloc_storage api fr
      in
      let result = run_with api st params in
      st.finish ();
      result)

and run_with api st params =
  let n = Bignum.of_decimal st.sol params.n in
  let primes =
    Api.phase api "setup" (fun () ->
        Api.work api params.bound (* sieve cost *);
        sieve_primes params.bound)
  in
  (* Cheap exits: a factor-base prime divides n. *)
  let small_factor =
    List.find_opt (fun p -> Bignum.mod_small st.temp n p = 0) primes
  in
  match small_factor with
  | Some p when string_of_int p <> params.n ->
      { factor = Some (string_of_int p); iterations = 0; relations = 0 }
  | Some _ | None -> (
      (* Factor base: 2 plus odd primes with (n/p) = 1. *)
      let fb =
        Api.phase api "setup" (fun () ->
            List.filter
              (fun p ->
                Api.work api 24;
                p = 2 || legendre (Bignum.mod_small st.temp n p) p = 1)
              primes)
      in
      let fb = Array.of_list fb in
      let nfb = Array.length fb in
      let ncols = nfb + 1 (* column 0 is the sign *) in
      let row_words = (ncols + 31) / 32 in
      let r0 = Bignum.isqrt st.sol n in
      let r0_sq = Bignum.mul st.temp r0 r0 in
      if Bignum.equal st.temp r0_sq n then
        { factor = Some (Bignum.to_decimal st.temp r0); iterations = 0; relations = 0 }
      else begin
        match cf_expansion api st params ~n ~r0 ~fb ~ncols ~row_words with
        | `Factor f, iters, rels -> { factor = Some f; iterations = iters; relations = rels }
        | `None, iters, rels -> { factor = None; iterations = iters; relations = rels }
      end)

(* Trial-divide q over the factor base; [Some exps] if smooth. *)
and try_smooth api st fb q =
  match Bignum.to_int_opt st.temp q with
  | None ->
      (* Larger than 48 bits: read once and divide down. *)
      let exps = Array.make (Array.length fb) 0 in
      let rest = ref q in
      Array.iteri
        (fun i p ->
          while Bignum.mod_small st.temp !rest p = 0 do
            let quot, _ = Bignum.divmod_small st.temp !rest p in
            rest := quot;
            exps.(i) <- exps.(i) + 1
          done)
        fb;
      if Bignum.to_int_opt st.temp !rest = Some 1 then Some exps else None
  | Some v ->
      (* Fits a machine word: divide with int arithmetic (charged). *)
      let exps = Array.make (Array.length fb) 0 in
      let v = ref v in
      Array.iteri
        (fun i p ->
          Api.work api 2;
          while !v mod p = 0 do
            Api.work api 2;
            v := !v / p;
            exps.(i) <- exps.(i) + 1
          done)
        fb;
      if !v = 1 then Some exps else None

(* The continued-fraction expansion of sqrt(n), collecting smooth
   relations A_{k-1}^2 = (-1)^k Q_k (mod n). *)
and cf_expansion api st params ~n ~r0 ~fb ~ncols ~row_words =
  let needed = ncols + 8 in
  let relations = ref 0 in
  let iterations = ref 0 in
  (* State: p = P_k, q = Q_k, a1 = A_{k-1} mod n, a2 = A_{k-2} mod n. *)
  let one = Bignum.of_int st.temp 1 in
  let p = ref (Bignum.copy st.temp r0) (* P_1 = r0 *) in
  let q =
    ref (Bignum.sub st.temp n (Bignum.mul st.temp r0 r0)) (* Q_1 = n - r0^2 *)
  in
  let a1 = ref (Bignum.modulo st.temp r0 n) (* A_0 *) in
  let a2 = ref one (* A_{-1} *) in
  let k = ref 1 in
  Api.phase api "expand" (fun () ->
  try
     while !relations < needed && !iterations < params.max_iterations do
       incr iterations;
       (* Q_k = 1 ends the period: no more useful relations. *)
       (match Bignum.to_int_opt st.temp !q with
       | Some 1 when !k > 1 -> raise Exit
       | _ -> ());
       (* Smoothness test for Q_k. *)
       (match try_smooth api st fb !q with
       | Some exps ->
           let sign = !k land 1 in
           Api.site api "relation" (fun () ->
               record_relation api st ~a:!a1 ~exps ~sign ~ncols ~row_words);
           incr relations
       | None -> ());
       (* Advance the recurrences. *)
       let num = Bignum.add st.temp r0 !p in
       let ak, _ = Bignum.divmod st.temp num !q in
       let anew =
         Bignum.modulo st.temp (Bignum.add st.temp (Bignum.mul st.temp ak !a1) !a2) n
       in
       let pnew = Bignum.sub st.temp (Bignum.mul st.temp ak !q) !p in
       let qnew, rem =
         Bignum.divmod st.temp (Bignum.sub st.temp n (Bignum.mul st.temp pnew pnew)) !q
       in
       assert (Bignum.is_zero st.temp rem);
       a2 := !a1;
       a1 := anew;
       p := pnew;
       q := qnew;
       incr k;
       if !iterations mod params.chunk = 0 then begin
         match Api.site api "rotate" (fun () -> st.rotate [ !p; !q; !a1; !a2 ]) with
         | [ p'; q'; a1'; a2' ] ->
             p := p';
             q := q';
             a1 := a1';
             a2 := a2'
         | _ -> assert false
       end
     done
   with Exit -> ());
  let factor =
    Api.phase api "solve" (fun () -> solve api st ~n ~fb ~ncols ~row_words)
  in
  (factor, !iterations, !relations)

(* Store a relation in the solution storage and link it. *)
and record_relation api st ~a ~exps ~sign ~ncols ~row_words =
  let a_kept = Bignum.copy st.sol a in
  let row = st.sol_raw (row_words * 4) in
  for w = 0 to row_words - 1 do
    Api.store api (row + (w * 4)) 0
  done;
  let set_bit c =
    let w = c / 32 and b = c mod 32 in
    Api.store api (row + (w * 4)) (Api.load api (row + (w * 4)) lxor (1 lsl b))
  in
  if sign = 1 then set_bit 0;
  Array.iteri (fun i e -> if e land 1 = 1 then set_bit (i + 1)) exps;
  let nexps = Array.length exps in
  let ebuf = st.sol_raw (nexps * 4) in
  Array.iteri (fun i e -> Api.store api (ebuf + (i * 4)) e) exps;
  let node = st.sol_node () in
  st.node_set node a_kept;
  st.node_set (node + 4) row;
  st.node_set (node + 8) ebuf;
  st.node_set (node + 12) (st.get_head ());
  st.set_head node;
  ignore ncols

(* Gaussian elimination over GF(2); on each dependency, try to pull a
   factor out of the congruence of squares. *)
and solve api st ~n ~fb ~ncols ~row_words =
  (* Collect relations (newest first; order is irrelevant). *)
  let rels = ref [] in
  let cur = ref (st.get_head ()) in
  while !cur <> 0 do
    let a = Api.load api !cur in
    let row = Api.load api (!cur + 4) in
    let exps = Api.load api (!cur + 8) in
    rels := (a, row, exps) :: !rels;
    cur := Api.load api (!cur + 12)
  done;
  let rels = Array.of_list !rels in
  let m = Array.length rels in
  if m = 0 then `None
  else begin
    let hist_words = (m + 31) / 32 in
    (* Row copies + history bitsets in temporary storage. *)
    let rows = Array.map (fun (_, row, _) -> row) rels in
    let hists =
      Array.init m (fun i ->
          let h = st.temp.Bignum.alloc hist_words in
          for w = 0 to hist_words - 1 do
            Api.store api (h + (w * 4)) 0
          done;
          Api.store api
            (h + (i / 32 * 4))
            (Api.load api (h + (i / 32 * 4)) lor (1 lsl (i mod 32)));
          h)
    in
    let get_bit buf c =
      Api.load api (buf + (c / 32 * 4)) lsr (c mod 32) land 1
    in
    let xor_into dst src words =
      for w = 0 to words - 1 do
        Api.store api (dst + (w * 4))
          (Api.load api (dst + (w * 4)) lxor Api.load api (src + (w * 4)))
      done
    in
    let pivot_of_col = Array.make ncols (-1) in
    let leading row =
      let rec go c = if c >= ncols then -1 else if get_bit row c = 1 then c else go (c + 1) in
      go 0
    in
    let found = ref `None in
    let i = ref 0 in
    while !found = `None && !i < m do
      let row = rows.(!i) in
      let rec reduce () =
        let c = leading row in
        if c >= 0 && pivot_of_col.(c) >= 0 then begin
          let j = pivot_of_col.(c) in
          xor_into row rows.(j) row_words;
          xor_into hists.(!i) hists.(j) hist_words;
          reduce ()
        end
        else c
      in
      let c = reduce () in
      if c < 0 then begin
        (* Dependency: the selected subset has an all-even exponent
           vector (and even sign count). *)
        match try_dependency api st ~n ~fb ~rels ~hist:hists.(!i) ~m ~get_bit with
        | Some f -> found := `Factor f
        | None -> ()
      end
      else pivot_of_col.(c) <- !i;
      incr i
    done;
    !found
  end

and try_dependency api st ~n ~fb ~rels ~hist ~m ~get_bit =
  let x = ref (Bignum.of_int st.temp 1) in
  let total = Array.make (Array.length fb) 0 in
  for k = 0 to m - 1 do
    if get_bit hist k = 1 then begin
      let a, _, exps = rels.(k) in
      x := Bignum.mulmod st.temp !x a n;
      Array.iteri
        (fun i _ -> total.(i) <- total.(i) + Api.load api (exps + (i * 4)))
        total
    end
  done;
  let y = ref (Bignum.of_int st.temp 1) in
  Array.iteri
    (fun i p ->
      let e = total.(i) in
      assert (e land 1 = 0);
      let pb = Bignum.of_int st.temp p in
      for _ = 1 to e / 2 do
        y := Bignum.mulmod st.temp !y pb n
      done)
    fb;
  let cmp = Bignum.compare_nat st.temp !x !y in
  if cmp = 0 then None
  else begin
    let diff =
      if cmp > 0 then Bignum.sub st.temp !x !y else Bignum.sub st.temp !y !x
    in
    let g = Bignum.gcd st.temp diff n in
    match Bignum.to_int_opt st.temp g with
    | Some 1 -> None
    | _ -> if Bignum.equal st.temp g n then None else Some (Bignum.to_decimal st.temp g)
  end
