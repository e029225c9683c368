(** Table 1 of the paper: complexity of the changes needed to port
    each benchmark to regions.  We measure the analogous quantity on
    this repository's workloads: total lines of each workload module,
    and the lines belonging to its storage-strategy / region-API
    plumbing (the code a malloc-only version would not need). *)

val render : ?source_dir:string -> unit -> string
(** [source_dir] defaults to "lib/workloads"; when the sources are not
    found (e.g. an installed binary), only the paper's values are
    shown. *)

val md : ?source_dir:string -> unit -> string
(** The porting-complexity table as markdown (the `table1` doc
    block). *)
