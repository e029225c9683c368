(** Hash table keyed by simulated addresses and region handles.

    [Workloads.Api]'s per-region counts of emulated regions use it
    instead of the polymorphic [Hashtbl], whose hash is a C call per
    lookup; {!Stats} uses its {!hash}. *)

val hash : int -> int
(** A multiplicative mix of the key, in [0, 2^32).  Its high bits are
    as well mixed as its low ones, so [hash k lsr (32 - b)] is a good
    [b]-bit index ({!Stats} uses it that way). *)

include Hashtbl.S with type key = int
