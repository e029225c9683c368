(** Reference values reported in the paper (Gay & Aiken, PLDI 1998),
    for side-by-side comparison in EXPERIMENTS.md and the harness
    output.  Values the OCR of the paper leaves illegible are
    [None]. *)

type table2_row = {
  t2_name : string;
  t2_allocs : int;
  t2_total_kb : float;
  t2_max_kb : float;
  t2_regions : int;
  t2_max_regions : int;
  t2_max_region_kb : float;
  t2_avg_region_kb : float;
  t2_avg_allocs : int;
}

val table2 : table2_row list
(** Allocation behaviour with regions. *)

type table3_row = {
  t3_name : string;
  t3_allocs : int option;
  t3_total_kb : float option;
  t3_max_kb : float option;
  t3_max_kb_wo_overhead : float option;
}

val table3 : table3_row list
(** Allocation behaviour with malloc. *)

type table1_row = { t1_name : string; t1_lines : int option; t1_changed : int option }

val table1 : table1_row list
(** Porting complexity (lines / changed lines). *)
