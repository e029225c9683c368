(* The model's code is in [Memory], where every simulated store runs it
   inline. *)
include Memory.Store_buffer_impl
