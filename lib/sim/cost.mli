(** Instruction and cycle accounting.

    Reproduces the paper's cost decomposition: execution time is split
    into a [base] part (the application proper) and a [memory] part
    (time spent inside the allocation library and in reference
    counting; Figure 9).  The memory part is further split into the
    three safety costs of Figure 11: cleanup functions, stack scans,
    and reference-count maintenance.

    Every simulated instruction costs one cycle; cache read misses and
    store-buffer overflows add stall cycles (Figure 10). *)

type context =
  | Base  (** application work *)
  | Alloc  (** allocation / deallocation library code *)
  | Refcount  (** reference-count barriers (Figure 5) *)
  | Stack_scan  (** stack scan and unscan (paper section 4.2.3) *)
  | Cleanup  (** region scan with cleanup functions (section 4.2.4) *)

type t

val create : unit -> t
val reset : t -> unit

val instr : t -> int -> unit
(** [instr t n] charges [n] instructions to the current context. *)

val context : t -> context

val enter : t -> context -> context
(** [enter t c] switches the current context to [c] and returns the
    context it replaced, for {!leave}. *)

val leave : t -> context -> unit
(** [leave t saved] settles the current context's charges and restores
    [saved]. *)

val within : t -> context -> ('a -> 'b -> 'r) -> 'a -> 'b -> 'r
(** [within t c f a b] runs [f a b] between {!enter} and {!leave},
    also when [f] raises.  For the per-operation sites (malloc, free,
    ralloc, ...): with [f] a top-level function, the call allocates
    no closure. *)

val with_context : t -> context -> (unit -> 'a) -> 'a
(** [with_context t c f] is [within] for a thunk.  For cold paths:
    the closure [f] is allocated per call. *)

val add_read_stall : t -> int -> unit
val add_write_stall : t -> int -> unit

(** Readouts. *)

val base_instrs : t -> int
val alloc_instrs : t -> int
val refcount_instrs : t -> int
val stack_scan_instrs : t -> int
val cleanup_instrs : t -> int

val memory_instrs : t -> int
(** Sum of the four non-base accounts. *)

val total_instrs : t -> int
val read_stall_cycles : t -> int
val write_stall_cycles : t -> int

val cycles : t -> int
(** [total_instrs + read stalls + write stalls]: the simulated
    wall-clock time.  O(1): the instruction total is kept running. *)
