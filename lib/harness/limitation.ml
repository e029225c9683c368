open Workloads

let run mode params =
  let api = Api.create ~with_cache:false mode in
  Game.run api params

let render () =
  let case lifetimes params =
    let malloc = run (Api.Direct Api.Lea) params in
    let regions = run (Api.Region { safe = true }) params in
    let row manager (out : Game.outcome) =
      [
        lifetimes;
        manager;
        Render.kb out.Game.peak_os_bytes;
        Render.kb out.Game.peak_live_bytes;
        string_of_int out.Game.peak_live_entities;
      ]
    in
    ( [ row "malloc/free (lea)" malloc; row "per-wave regions" regions ],
      float_of_int regions.Game.peak_os_bytes
      /. float_of_int malloc.Game.peak_os_bytes )
  in
  let random_rows, random = case "random (the problem case)" Game.default_params in
  let corr_rows, corr =
    case "wave-correlated (the control)" Game.correlated_params
  in
  "The paper's section-1 limitation: \"a game where objects are allocated \
   and deallocated as the result of the player's actions; there is no way \
   to place objects with similar lifetimes in a common region.\"  Peak \
   simulated footprint of the game workload:\n\n"
  ^ Render.md_table
      ~header:
        [
          "lifetimes"; "manager"; "peak footprint kB"; "program needed kB";
          "entities live at peak";
        ]
      (random_rows @ corr_rows)
  ^ Printf.sprintf
      "\n\nWith random lifetimes regions hold %.1fx the memory of malloc/free: \
       one survivor pins its whole wave.  With wave-correlated lifetimes they \
       hold %.1fx: lifetimes match regions again."
      random corr
