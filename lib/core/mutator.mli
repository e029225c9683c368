(** Model of the mutator's stack and global storage.

    The paper's reference-counting scheme depends on the shape of the
    running program: reference counts deliberately ignore pointers in
    local variables below the stack's high-water mark, a stack scan
    makes counts exact on demand, and returning into a scanned frame
    triggers an unscan (section 4.2 of the paper).  Workloads and the
    creg VM declare their call frames and region-pointer locals here,
    playing the role of the code the C@ compiler would have generated.

    Frame slots are OCaml-side (the real stack is hot in cache, and
    scan costs are charged explicitly by the region library); global
    storage is real simulated memory so that writes to globals hit the
    cache like any other memory traffic.

    The frame stack also provides the conservative collector's root
    set ({!iter_roots}). *)

type t
type frame

val create : ?globals_words:int -> Sim.Memory.t -> t
(** [create mem] builds a mutator with a global area of
    [globals_words] words (default 1024) of mapped simulated
    memory. *)

val memory : t -> Sim.Memory.t

(** {1 Scheduled identity}

    Which of the N interleaved mutators the machine is currently
    running (see {!Sched}).  Pure bookkeeping — a thread-local
    register, charging nothing.  The frame stack is shared: frames
    belong to whichever mutator pushed them. *)

val current_id : t -> int
(** 0 until {!set_current_id} is called. *)

val set_current_id : t -> int -> unit
(** @raise Invalid_argument on a negative id. *)

(** {1 Globals} *)

val globals_words : t -> int

val global_addr : t -> int -> int
(** [global_addr t i] is the address of global slot [i]. *)

val is_global : t -> int -> bool
(** Whether an address falls in the global area. *)

(** {1 Frames} *)

val push_frame : t -> nslots:int -> ptr_slots:int list -> frame
(** [push_frame t ~nslots ~ptr_slots] enters a procedure whose frame
    has [nslots] local slots, of which those listed in [ptr_slots]
    hold region pointers (the call-site liveness map of paper
    section 4.2.3). *)

val pop_frame : t -> unit
(** Leave the current procedure.  If the frame returned into was
    scanned, the unscan hook runs on it and the high-water mark moves
    (the paper's patched-return-address mechanism). *)

val with_frame : t -> nslots:int -> ptr_slots:int list -> (frame -> 'a) -> 'a
(** [with_frame] brackets {!push_frame}/{!pop_frame}, popping on
    exceptions too. *)

val depth : t -> int
val frame : t -> int -> frame
(** [frame t i] is the [i]th frame, 0 being the oldest. *)

val top_frame : t -> frame
(** @raise Invalid_argument when the stack is empty. *)

val get_local : frame -> int -> int

val set_local : t -> frame -> int -> int -> unit
(** Charges one instruction; never reference-counted (that is the
    point of the high-water-mark scheme).  Writing a frame below the
    high-water mark — which only an N-mutator schedule does — lowers
    the mark to that frame, running the unscan hook for every frame it
    descends past, as if control had returned there. *)

val set_local_raw : t -> frame -> int -> int -> unit
(** {!set_local} without the scanned-frame mark descent: for region
    deletion, which clears the deleted handle mid-scan and manages the
    mark itself. *)

val nslots : frame -> int
val is_ptr_slot : frame -> int -> bool

(** {1 Operand stack}

    The creg VM keeps expression temporaries on a per-frame operand
    stack.  Temporaries that hold region pointers are live across
    calls, so — like the registers in the paper's call-site liveness
    maps — they participate in stack scans ({!iter_live_ptrs}).  A
    frame's operands only change while it is the running frame, and
    scans only see suspended frames (or the top frame between its scan
    and the paired unscan inside [deleteregion]), so scan/unscan pairs
    always see identical contents. *)

val push_operand : t -> frame -> value:int -> is_ptr:bool -> unit
val pop_operand : t -> frame -> int

val operands : frame -> (int * bool) list
(** The operand stack, newest first, with each value's
    is-region-pointer flag (introspection). *)

val iter_live_ptrs : frame -> (int -> unit) -> unit
(** Every region-pointer value in the frame: pointer slots (including
    nulls) and pointer operands. *)

(** {1 High-water mark} *)

val hwm : t -> int
(** Number of scanned frames; frames [0 .. hwm-1] (oldest first) are
    counted in region reference counts. *)

val set_hwm : t -> int -> unit

val set_unscan_hook : t -> (frame -> unit) -> unit
(** Called by {!pop_frame} on a scanned frame being returned into,
    before the high-water mark is lowered past it. *)

val set_pop_hook : t -> (frame -> unit) -> unit
(** Called by {!pop_frame} with the frame being destroyed, before
    removal.  Used by the eager-local-counting ablation to release the
    popped frame's counted references. *)

(** {1 Roots for the conservative collector} *)

val iter_roots : t -> (int -> unit) -> unit
(** Iterate every value in every frame slot and every global word
    (read cost-free: the collector charges its own scanning costs). *)
