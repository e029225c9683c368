(** Table 1 of the paper: complexity of the changes needed to port
    each benchmark to regions.  We measure the analogous quantity on
    this repository's workloads: total lines of each workload module,
    and the lines belonging to its storage-strategy / region-API
    plumbing (the code a malloc-only version would not need). *)

val render : unit -> string
(** The porting-complexity table (the `table1` section).  Our line
    counts are read from lib/workloads/ under the working directory;
    where those sources are not found (e.g. an installed binary), only
    the paper's values are shown. *)
