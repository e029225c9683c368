(** Stack bytecode for creg.

    The compiler marks every push of a region-pointer value, every
    pointer store (which the VM turns into a Figure 5 write barrier),
    and each function's region-pointer slots (the liveness map used by
    the stack scan) — the information the paper's modified lcc records
    at call sites. *)

type instr =
  | Push_int of int
  | Pop
  | Load_local of int * bool  (** slot, pushes-region-pointer *)
  | Store_local of int * bool
  | Load_global of int * bool
  | Store_global of int * bool
  | Load_field of int * bool  (** byte offset, pushes-region-pointer *)
  | Store_field of int * bool  (** byte offset, value-is-region-pointer *)
  | Binop of Ast.binop
  | Unop of Ast.unop
  | Jump of int
  | Jz of int
  | Call of int
  | Ret of { has_value : bool; is_ptr : bool }
  | New_region
  | Delete_region of int  (** local slot holding the region handle *)
  | Ralloc of int  (** struct id *)
  | Rarrayalloc of int  (** struct id *)
  | Ptr_add of int  (** element size in bytes *)
  | Rstralloc
  | Regionof
  | Print

type func = {
  bf_name : string;
  bf_nslots : int;
  bf_ptr_slots : int list;
  bf_nparams : int;
  bf_param_ptrs : bool list;  (** per parameter, in order *)
  bf_code : instr array;
}

type program = {
  bp_structs : Regions.Cleanup.layout array;  (** indexed by struct id *)
  bp_funcs : func array;
  bp_globals : (string * bool) array;  (** name, holds-region-pointer *)
  bp_main : int;
}

val pp_func : func Fmt.t
