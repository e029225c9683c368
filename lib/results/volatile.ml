(* The one definition of "legitimately differs between two honest
   runs": the golden gates and [repro results compare] prune from here
   rather than growing their own inline list. *)

let provenance = [ "provenance" ]
