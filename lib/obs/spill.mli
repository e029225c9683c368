(** Binary spill-file sink and reader.

    Format: a 10-byte magic ["OBSTRACE1\n"] followed by fixed 40-byte
    records of five little-endian 64-bit integers — kind (see
    {!Event.to_int}), simulated-cycle timestamp, site id, and the two
    payload words.  A tracer created with {!sink} writes the complete
    ordered event stream to disk as it runs. *)

val magic : string
val record_bytes : int

val sink : out_channel -> Tracer.sink
(** Write the magic header now and return a sink appending one record
    per event.  The caller closes the channel. *)

val read_file : string -> Tracer.sink -> unit
(** Replay every record to the callback.  Fails on a bad magic. *)
