(** Markdown tables and number formats for the report sections: the
    blocks `repro experiment` prints and `repro docs --check` gates. *)

val md_table : header:string list -> string list list -> string
(** A GitHub-flavoured markdown table (first column left-aligned, the
    rest right-aligned). *)

val kb : int -> string
(** Bytes as a kilobyte figure with one decimal. *)

val mega : int -> string
(** Large counts as M/k-suffixed figures. *)

val pct : float -> string
