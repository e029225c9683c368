type kind =
  | Region_create
  | Region_delete
  | Malloc
  | Free
  | Ralloc
  | Page_map
  | Barrier
  | Gc_begin
  | Gc_end
  | Phase_begin
  | Phase_end
  | Site_enter
  | Site_exit

let all =
  [
    Region_create;
    Region_delete;
    Malloc;
    Free;
    Ralloc;
    Page_map;
    Barrier;
    Gc_begin;
    Gc_end;
    Phase_begin;
    Phase_end;
    Site_enter;
    Site_exit;
  ]

let to_int = function
  | Region_create -> 0
  | Region_delete -> 1
  | Malloc -> 2
  | Free -> 3
  | Ralloc -> 5
  | Page_map -> 6
  | Barrier -> 7
  | Gc_begin -> 8
  | Gc_end -> 9
  | Phase_begin -> 10
  | Phase_end -> 11
  | Site_enter -> 12
  | Site_exit -> 13

let of_int = function
  | 0 -> Region_create
  | 1 -> Region_delete
  | 2 -> Malloc
  | 3 -> Free
  | 5 -> Ralloc
  | 6 -> Page_map
  | 7 -> Barrier
  | 8 -> Gc_begin
  | 9 -> Gc_end
  | 10 -> Phase_begin
  | 11 -> Phase_end
  | 12 -> Site_enter
  | 13 -> Site_exit
  | n -> invalid_arg (Printf.sprintf "Obs.Event.of_int: %d" n)

let name = function
  | Region_create -> "region_create"
  | Region_delete -> "region_delete"
  | Malloc -> "malloc"
  | Free -> "free"
  | Ralloc -> "ralloc"
  | Page_map -> "page_map"
  | Barrier -> "barrier"
  | Gc_begin -> "gc_begin"
  | Gc_end -> "gc_end"
  | Phase_begin -> "phase_begin"
  | Phase_end -> "phase_end"
  | Site_enter -> "site_enter"
  | Site_exit -> "site_exit"
