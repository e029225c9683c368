(** One machine-readable cell of the evaluation: the measurements of a
    single (workload, mode) run plus the provenance needed to say
    {e which} code and configuration produced them.

    This is the schema behind everything downstream: the persistent
    results store and golden files ({!Store}), the content-addressed
    cell cache ({!Cache}), the serve daemon's crash-consistent journal
    ([Harness.Journal]) and the generated blocks of EXPERIMENTS.md.
    Encoding is versioned, field-named JSON — never [Marshal] — so a
    cell written by one build either decodes under another or fails
    with the name of the offending field. *)

val schema_version : int

type provenance = {
  build_id : string;  (** digest of the producing executable *)
  seed : int;  (** fault-plan seed; [0] for plain matrix cells *)
  plan : string;  (** fault-plan spec; ["none"] for plain matrix cells *)
}

type t = {
  size : string;  (** ["quick"] or ["full"] *)
  prov : provenance;
  result : Workloads.Results.t;
}

val make :
  size:string ->
  build_id:string ->
  ?seed:int ->
  ?plan:string ->
  Workloads.Results.t ->
  t

val workload : t -> string
val mode : t -> string

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result

val encode_result : Workloads.Results.t -> Json.t
(** Measurements only, no provenance — the journal payload, and the
    part of a cell the golden gate compares. *)

val decode_result : Json.t -> (Workloads.Results.t, string) result

val equal_measurements : t -> t -> bool
(** Size and every measurement equal; provenance ignored (build ids
    differ between builds by construction). *)
