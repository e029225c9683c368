(* The model's code is in [Memory], where every simulated access runs
   it inline. *)
include Memory.Cache_impl
