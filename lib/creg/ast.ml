type pos = { line : int; col : int }

type ty = Tint | Tregion | Trptr of string | Tnptr of string

let pp_ty ppf = function
  | Tint -> Fmt.string ppf "int"
  | Tregion -> Fmt.string ppf "region"
  | Trptr s -> Fmt.pf ppf "struct %s @@" s
  | Tnptr s -> Fmt.pf ppf "struct %s *" s

let is_pointer = function
  | Trptr _ | Tregion -> true
  | Tint | Tnptr _ -> false

type binop = Add | Sub | Mul | Div | Mod | Eq | Ne | Lt | Le | Gt | Ge | And | Or
type unop = Neg | Not

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Int of int
  | Null
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Field of expr * string
  | Call of string * expr list
  | New_region
  | Ralloc of expr * string
  | Rallocarray of expr * expr * string
  | Rstralloc of expr * expr
  | Regionof of expr
  | Deleteregion of string
  | Cast of ty * expr

type lvalue = Lvar of string | Lfield of expr * string
type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Decl of ty * string * expr option
  | Assign of lvalue * expr
  | Expr of expr
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr option
  | Print of expr

type struct_decl = { s_name : string; s_fields : (ty * string) list; s_pos : pos }

type func_decl = {
  f_name : string;
  f_ret : ty option;
  f_params : (ty * string) list;
  f_body : stmt list;
  f_pos : pos;
}

type global_decl = { g_ty : ty; g_name : string; g_pos : pos }
type item = Struct of struct_decl | Func of func_decl | Global of global_decl
type program = item list
