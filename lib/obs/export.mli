(** Renderers for recorded traces: Chrome [trace_event] JSON (loads in
    Perfetto / chrome://tracing), heap time-series CSV, per-site
    attribution tables and folded stacks for [flamegraph.pl] /
    [inferno-flamegraph].  All pure readers — safe to run after the
    simulation. *)

val chrome_json :
  ?pid:int ->
  ?process_name:string ->
  Tracer.t ->
  (Tracer.sink -> unit) ->
  string
(** [chrome_json t iter] exports the events [iter] feeds its callback
    — e.g. the records of a {!Spill} file — plus [t]'s time-series
    samples as Chrome JSON Array Format, naming sites from [t]'s site
    table.  One simulated cycle maps to one trace microsecond.

    [pid]/[process_name] (defaults [1] / ["simulated UltraSparc-I"])
    name the process the events land under, on a thread named
    ["mutator"]: exporting each allocator column with its own
    pid and name shows labelled tracks in Perfetto instead of bare
    pids.  A given [pid] is also the process's sort index: the export
    emits the matching metadata record, so columns keep a stable
    display order. *)

val heap_csv : Tracer.t -> string
(** The sampler's cumulative rows, one per line. *)

val site_table : ?top:int -> Tracer.t -> string
(** Top-[top] (default 20) sites by self cycles. *)

val folded : Tracer.t -> string
(** Folded-stack lines ["phase;site value"]. *)

val sites_txt : Tracer.t -> string
(** The interned site table, ["id name"] per line. *)

val json_escape : string -> string
