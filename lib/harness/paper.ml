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

(* Table 2 of the paper: allocation behaviour with regions. *)
let table2 =
  [
    { t2_name = "cfrac"; t2_allocs = 3_812_425; t2_total_kb = 60_107.; t2_max_kb = 106.;
      t2_regions = 23_383; t2_max_regions = 5; t2_max_region_kb = 83.6;
      t2_avg_region_kb = 2.57; t2_avg_allocs = 163 };
    { t2_name = "grobner"; t2_allocs = 805_321; t2_total_kb = 28_454.; t2_max_kb = 43.6;
      t2_regions = 11_452; t2_max_regions = 4; t2_max_region_kb = 13.0;
      t2_avg_region_kb = 2.48; t2_avg_allocs = 70 };
    { t2_name = "mudlle"; t2_allocs = 737_850; t2_total_kb = 10_661.; t2_max_kb = 240.;
      t2_regions = 4_648; t2_max_regions = 13; t2_max_region_kb = 141.;
      t2_avg_region_kb = 2.29; t2_avg_allocs = 159 };
    { t2_name = "lcc"; t2_allocs = 177_816; t2_total_kb = 8_711.; t2_max_kb = 4_567.;
      t2_regions = 1_249; t2_max_regions = 3; t2_max_region_kb = 4_125.;
      t2_avg_region_kb = 6.97; t2_avg_allocs = 142 };
    { t2_name = "tile"; t2_allocs = 40_699; t2_total_kb = 1_347.; t2_max_kb = 88.4;
      t2_regions = 81; t2_max_regions = 5; t2_max_region_kb = 41.9;
      t2_avg_region_kb = 12.5; t2_avg_allocs = 502 };
    { t2_name = "moss"; t2_allocs = 552_240; t2_total_kb = 7_778.; t2_max_kb = 2_212.;
      t2_regions = 1_899; t2_max_regions = 7; t2_max_region_kb = 1_246.;
      t2_avg_region_kb = 3.49; t2_avg_allocs = 291 };
  ]

type table3_row = {
  t3_name : string;
  t3_allocs : int option;
  t3_total_kb : float option;
  t3_max_kb : float option;
  t3_max_kb_wo_overhead : float option;
}

(* Table 3: allocation behaviour with malloc.  Several entries are
   illegible in the available scan of the paper. *)
let table3 =
  [
    { t3_name = "cfrac"; t3_allocs = None; t3_total_kb = Some 66_879.;
      t3_max_kb = Some 84.8; t3_max_kb_wo_overhead = None };
    { t3_name = "grobner"; t3_allocs = Some 804_956; t3_total_kb = Some 28_449.;
      t3_max_kb = Some 46.2; t3_max_kb_wo_overhead = None };
    { t3_name = "mudlle"; t3_allocs = Some 742_495; t3_total_kb = Some 13_578.;
      t3_max_kb = Some 324.; t3_max_kb_wo_overhead = Some 239. };
    { t3_name = "lcc"; t3_allocs = Some 166_495; t3_total_kb = Some 9_102.;
      t3_max_kb = Some 4_683.; t3_max_kb_wo_overhead = Some 4_375. };
    { t3_name = "tile"; t3_allocs = None; t3_total_kb = Some 1_330.;
      t3_max_kb = Some 84.0; t3_max_kb_wo_overhead = None };
    { t3_name = "moss"; t3_allocs = None; t3_total_kb = Some 7_778.;
      t3_max_kb = Some 2_203.; t3_max_kb_wo_overhead = None };
  ]

type table1_row = { t1_name : string; t1_lines : int option; t1_changed : int option }

(* Table 1: porting complexity.  Only cfrac's row survives OCR
   legibly ("cfrac | 4203 | 149 18"). *)
let table1 =
  [
    { t1_name = "cfrac"; t1_lines = Some 4_203; t1_changed = Some 149 };
    { t1_name = "grobner"; t1_lines = None; t1_changed = None };
    { t1_name = "mudlle"; t1_lines = None; t1_changed = None };
    { t1_name = "lcc"; t1_lines = None; t1_changed = None };
    { t1_name = "tile"; t1_lines = None; t1_changed = None };
    { t1_name = "moss"; t1_lines = None; t1_changed = None };
  ]
