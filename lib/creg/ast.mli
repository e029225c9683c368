(** Abstract syntax of creg, the C@-like language of the paper
    (section 3.1).

    creg distinguishes {e region pointers} ([struct s @]) from
    {e normal pointers} ([struct s *]); the two are different types
    with no implicit conversion, although explicit (unsafe) casts are
    permitted.  [region] is itself a first-class type (C@'s [Region],
    a pointer to a region structure). *)

type pos = { line : int; col : int }

type ty =
  | Tint
  | Tregion
  | Trptr of string  (** [struct s @] *)
  | Tnptr of string  (** [struct s *] *)

val pp_ty : ty Fmt.t
val is_pointer : ty -> bool
(** Region pointers and the region type itself are reference-counted
    values; normal pointers are not. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop = Neg | Not

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Int of int
  | Null
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Field of expr * string  (** [e->f] *)
  | Call of string * expr list
  | New_region
  | Ralloc of expr * string  (** [ralloc(r, struct s)] *)
  | Rallocarray of expr * expr * string
      (** [rallocarray(r, n, struct s)]: an array of [n] structs;
          elements are reached with pointer arithmetic ([p + i]) *)
  | Rstralloc of expr * expr  (** [rstralloc(r, nbytes)]: raw words *)
  | Regionof of expr
  | Deleteregion of string  (** [deleteregion(v)], v a region variable *)
  | Cast of ty * expr

type lvalue =
  | Lvar of string
  | Lfield of expr * string

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Decl of ty * string * expr option
  | Assign of lvalue * expr
  | Expr of expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr option
  | Print of expr

type struct_decl = {
  s_name : string;
  s_fields : (ty * string) list;
  s_pos : pos;
}

type func_decl = {
  f_name : string;
  f_ret : ty option;  (** [None] = void *)
  f_params : (ty * string) list;
  f_body : stmt list;
  f_pos : pos;
}

type global_decl = { g_ty : ty; g_name : string; g_pos : pos }

type item =
  | Struct of struct_decl
  | Func of func_decl
  | Global of global_decl

type program = item list
