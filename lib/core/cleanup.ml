type layout = { size_bytes : int; ptr_offsets : int list }

let layout_words n = { size_bytes = n * 4; ptr_offsets = [] }

let layout ~size_bytes ~ptr_offsets =
  List.iter
    (fun off ->
      if off < 0 || off land 3 <> 0 || off + 4 > size_bytes then
        invalid_arg "Cleanup.layout: bad pointer offset")
    ptr_offsets;
  if size_bytes <= 0 then invalid_arg "Cleanup.layout: bad size";
  { size_bytes; ptr_offsets = List.sort_uniq compare ptr_offsets }

type id = int

type kind =
  | Object of layout
  | Array of layout
  | Custom of { size_bytes : int; run : Sim.Memory.t -> int -> unit }

(* Ids index [kinds] directly; slot 0 and the slots from [next] on are
   filler that [find] never returns.  Object and array ids also sit in
   buckets indexed by the layout's word size (sizes of a page or more
   share the last bucket), so registering a layout is an array index
   and a short scan of the ids of that size: the value registered
   first matches by [==], a structurally equal one by an int and an
   int-list comparison.  Neither hashes nor allocates. *)
type t = {
  mutable next : id;
  mutable kinds : kind array;
  mutable buckets : id list array;
}

let last_bucket = 1024
let filler = Custom { size_bytes = 1; run = (fun _ _ -> ()) }
let create () = { next = 1; kinds = Array.make 16 filler; buckets = [||] }

let fresh t kind =
  let id = t.next in
  if id >= Array.length t.kinds then begin
    let bigger = Array.make (2 * id) filler in
    Array.blit t.kinds 0 bigger 0 id;
    t.kinds <- bigger
  end;
  t.kinds.(id) <- kind;
  t.next <- id + 1;
  id

let same a b =
  a == b
  || a.size_bytes = b.size_bytes
     && List.equal Int.equal a.ptr_offsets b.ptr_offsets

let rec lookup t ~array l = function
  | [] -> 0
  | id :: rest -> (
      match t.kinds.(id) with
      | Object l' when (not array) && same l l' -> id
      | Array l' when array && same l l' -> id
      | _ -> lookup t ~array l rest)

let register t ~array l =
  let i = min (l.size_bytes lsr 2) last_bucket in
  if i >= Array.length t.buckets then begin
    let bigger = Array.make (min ((2 * i) + 2) (last_bucket + 1)) [] in
    Array.blit t.buckets 0 bigger 0 (Array.length t.buckets);
    t.buckets <- bigger
  end;
  match lookup t ~array l t.buckets.(i) with
  | 0 ->
      let id = fresh t (if array then Array l else Object l) in
      t.buckets.(i) <- id :: t.buckets.(i);
      id
  | id -> id

let register_object t l = register t ~array:false l
let register_array t l = register t ~array:true l

let register_custom t ~size_bytes run =
  if size_bytes <= 0 then invalid_arg "Cleanup.register_custom: bad size";
  fresh t (Custom { size_bytes; run })

let find t id =
  if id <= 0 || id >= t.next then
    invalid_arg (Printf.sprintf "Cleanup.find: unknown cleanup id %d" id);
  Array.unsafe_get t.kinds id

let stride l = (l.size_bytes + 3) land lnot 3
