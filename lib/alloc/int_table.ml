(* Fibonacci hashing: multiply by an odd 64-bit constant (wrapping at
   63 bits) and keep bits 31..62 of the product, where every key bit
   has mixed in.  Addresses and region handles are 4-, 8- or
   16-aligned and often page-aligned; the identity would leave those
   low zero bits in the bucket index. *)
let hash k = (k * 0x2545F4914F6CDD1D) lsr 31

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
