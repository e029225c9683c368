type ctx = { api : Api.t; alloc : int -> int }
type nat = int

let base = 1 lsl 16
let words_needed n = n + 1

(* ------------------------------------------------------------------ *)
(* Heap <-> limb arrays.  Reads and writes go through the simulated
   memory; pure limb computation is charged as base work. *)

let read ctx a =
  let n = Api.load ctx.api a in
  Api.load_block ctx.api (a + 4) n

(* Normalised length of a limb array (drop leading zeros). *)
let norm_len limbs =
  let rec go i = if i > 0 && limbs.(i - 1) = 0 then go (i - 1) else i in
  go (Array.length limbs)

let write ctx limbs =
  let n = norm_len limbs in
  let a = ctx.alloc (words_needed n) in
  Api.store ctx.api a n;
  Api.store_block ctx.api (a + 4) (Array.sub limbs 0 n);
  a

(* ------------------------------------------------------------------ *)
(* Pure limb-array arithmetic (base 2^16) *)

let arr_is_zero a = norm_len a = 0

let arr_cmp a b =
  let la = norm_len a and lb = norm_len b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let arr_add a b =
  let la = norm_len a and lb = norm_len b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    out.(i) <- s land (base - 1);
    carry := s lsr 16
  done;
  out

let arr_sub a b =
  (* requires a >= b *)
  let la = norm_len a and lb = norm_len b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Bignum.sub: negative result";
  out

let arr_mul a b =
  let la = norm_len a and lb = norm_len b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- v land (base - 1);
        carry := v lsr 16
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    done;
    out
  end

let arr_mul_small a k =
  let la = norm_len a in
  let out = Array.make (la + 4) 0 in
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let v = (a.(i) * k) + !carry in
    out.(i) <- v land (base - 1);
    carry := v lsr 16
  done;
  let i = ref la in
  while !carry <> 0 do
    out.(!i) <- !carry land (base - 1);
    carry := !carry lsr 16;
    incr i
  done;
  out

let arr_of_int n =
  let rec go n acc = if n = 0 then List.rev acc else go (n lsr 16) ((n land (base - 1)) :: acc) in
  Array.of_list (go n [])

let arr_to_int_opt a =
  let n = norm_len a in
  (* 62 bits fit an OCaml int: up to three limbs always, four when the
     top limb stays under 2^14. *)
  if n > 4 || (n = 4 && a.(3) >= 1 lsl 14) then None
  else begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl 16) lor a.(i)
    done;
    Some !v
  end

(* Bit-level helpers for binary long division. *)
let arr_bits a =
  let n = norm_len a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * 16) + width top 0
  end

let arr_get_bit a i =
  let limb = i / 16 in
  if limb >= Array.length a then 0 else (a.(limb) lsr (i mod 16)) land 1

(* r := r*2 + bit, in place over a sufficiently large buffer. *)
let arr_shl1_add buf len bit =
  let carry = ref bit in
  for i = 0 to len - 1 do
    let v = (buf.(i) lsl 1) lor !carry in
    buf.(i) <- v land (base - 1);
    carry := v lsr 16
  done;
  if !carry <> 0 then invalid_arg "Bignum: shift overflow"

(* buf >= d ? (buf has length len, d normalised) *)
let arr_ge buf len d =
  let ld = norm_len d in
  let lbuf =
    let rec go i = if i > 0 && buf.(i - 1) = 0 then go (i - 1) else i in
    go len
  in
  if lbuf <> ld then lbuf > ld
  else begin
    let rec go i =
      if i < 0 then true
      else if buf.(i) <> d.(i) then buf.(i) > d.(i)
      else go (i - 1)
    in
    go (ld - 1)
  end

(* buf := buf - d, in place *)
let arr_sub_in_place buf d =
  let ld = norm_len d in
  let borrow = ref 0 in
  for i = 0 to ld - 1 do
    let v = buf.(i) - d.(i) - !borrow in
    if v < 0 then begin
      buf.(i) <- v + base;
      borrow := 1
    end
    else begin
      buf.(i) <- v;
      borrow := 0
    end
  done;
  let i = ref ld in
  while !borrow <> 0 do
    let v = buf.(!i) - !borrow in
    if v < 0 then begin
      buf.(!i) <- v + base;
      borrow := 1
    end
    else begin
      buf.(!i) <- v;
      borrow := 0
    end;
    incr i
  done

(* Binary long division: simple and robust; cost charged as work. *)
let arr_divmod a d =
  if arr_is_zero d then raise Division_by_zero;
  let bits = arr_bits a in
  let q = Array.make (Array.length a + 1) 0 in
  let rlen = norm_len d + 2 in
  let r = Array.make (rlen + 1) 0 in
  for i = bits - 1 downto 0 do
    arr_shl1_add r rlen (arr_get_bit a i);
    if arr_ge r rlen d then begin
      arr_sub_in_place r d;
      q.(i / 16) <- q.(i / 16) lor (1 lsl (i mod 16))
    end
  done;
  (q, r)

let arr_divmod_small a k =
  if k <= 0 || k >= base * base then invalid_arg "divmod_small";
  let la = norm_len a in
  let q = Array.make (max la 1) 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl 16) lor a.(i) in
    q.(i) <- cur / k;
    r := cur mod k
  done;
  (q, !r)

(* ------------------------------------------------------------------ *)
(* Public heap-level operations *)

let of_int ctx n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  write ctx (arr_of_int n)

let to_int_opt ctx a = arr_to_int_opt (read ctx a)
let num_limbs ctx a = Api.load ctx.api a
let is_zero ctx a = num_limbs ctx a = 0

let is_even ctx a =
  let n = num_limbs ctx a in
  n = 0 || Api.load ctx.api (a + 4) land 1 = 0

let compare_nat ctx a b = arr_cmp (read ctx a) (read ctx b)
let equal ctx a b = compare_nat ctx a b = 0

let charge ctx n = Api.work ctx.api n

let add ctx a b =
  let xa = read ctx a and xb = read ctx b in
  charge ctx (max (Array.length xa) (Array.length xb) + 2);
  write ctx (arr_add xa xb)

let sub ctx a b =
  let xa = read ctx a and xb = read ctx b in
  charge ctx (Array.length xa + 2);
  write ctx (arr_sub xa xb)

let mul ctx a b =
  let xa = read ctx a and xb = read ctx b in
  charge ctx ((norm_len xa * norm_len xb) + 2);
  write ctx (arr_mul xa xb)

let divmod ctx a d =
  let xa = read ctx a and xd = read ctx d in
  charge ctx ((arr_bits xa * (norm_len xd + 1)) + 4);
  let q, r = arr_divmod xa xd in
  (write ctx q, write ctx r)

let divmod_small ctx a k =
  let xa = read ctx a in
  charge ctx (Array.length xa + 2);
  let q, r = arr_divmod_small xa k in
  (write ctx q, r)

let mod_small ctx a k =
  if k <= 0 then invalid_arg "mod_small";
  let xa = read ctx a in
  charge ctx (Array.length xa + 2);
  let r = ref 0 in
  for i = norm_len xa - 1 downto 0 do
    r := ((!r lsl 16) lor xa.(i)) mod k
  done;
  !r

let copy ctx a =
  charge ctx 2;
  write ctx (read ctx a)

let modulo ctx a d =
  let xa = read ctx a and xd = read ctx d in
  charge ctx ((arr_bits xa * (norm_len xd + 1)) + 4);
  let _, r = arr_divmod xa xd in
  write ctx r

let isqrt ctx a =
  let xa = read ctx a in
  let bits = arr_bits xa in
  let rbits = (bits + 1) / 2 in
  let r = Array.make ((rbits / 16) + 2) 0 in
  (* Build the root bit by bit, testing (r | bit)^2 <= a. *)
  for i = rbits - 1 downto 0 do
    r.(i / 16) <- r.(i / 16) lor (1 lsl (i mod 16));
    let sq = arr_mul r r in
    charge ctx (norm_len r * norm_len r);
    if arr_cmp sq xa > 0 then r.(i / 16) <- r.(i / 16) land lnot (1 lsl (i mod 16))
  done;
  write ctx r

let gcd ctx a b =
  let rec go x y =
    (* Euclid on limb arrays. *)
    if arr_is_zero y then x
    else begin
      charge ctx ((arr_bits x * (norm_len y + 1)) + 4);
      let _, r = arr_divmod x y in
      go y (Array.sub r 0 (norm_len r))
    end
  in
  let xa = read ctx a and xb = read ctx b in
  write ctx (go xa xb)

let mulmod ctx a b m =
  let xa = read ctx a and xb = read ctx b and xm = read ctx m in
  let p = arr_mul xa xb in
  charge ctx ((norm_len xa * norm_len xb) + (arr_bits p * (norm_len xm + 1)) + 4);
  let _, r = arr_divmod p xm in
  write ctx r

let to_decimal ctx a =
  let buf = Buffer.create 32 in
  let rec go x =
    if arr_is_zero x then ()
    else begin
      let q, r = arr_divmod_small x 10000 in
      let qn = Array.sub q 0 (norm_len q) in
      if arr_is_zero qn then Buffer.add_string buf (string_of_int r)
      else begin
        go qn;
        Buffer.add_string buf (Printf.sprintf "%04d" r)
      end
    end
  in
  let xa = read ctx a in
  charge ctx (Array.length xa * 8);
  if arr_is_zero xa then "0"
  else begin
    go xa;
    Buffer.contents buf
  end

let of_decimal ctx s =
  let acc = ref [||] in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Bignum.of_decimal";
      let v = arr_mul_small !acc 10 in
      acc := arr_add v (arr_of_int (Char.code c - Char.code '0')))
    s;
  charge ctx (String.length s * 4);
  write ctx !acc
