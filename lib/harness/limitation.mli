(** The paper's stated limitation (section 1): a game whose object
    lifetimes are decided by play cannot place objects with similar
    lifetimes in a common region.  This experiment measures the game
    workload's peak memory under malloc and under per-wave regions,
    with random lifetimes (the problem case) and with wave-correlated
    lifetimes (the control where regions behave). *)

val render : unit -> string
(** The peak-footprint table and the two ratios (the `limitation`
    section). *)
