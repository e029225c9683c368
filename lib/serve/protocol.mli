(** Wire protocol of the cell daemon.

    Frames are a 4-byte big-endian payload length followed by that
    many bytes of compact JSON — self-delimiting over a stream socket,
    trivially validated, and bounded: a declared length of zero or
    more than {!max_frame} is a protocol violation the daemon answers
    with an error frame and a close, never with death or unbounded
    buffering.

    One connection carries any number of request/response exchanges.
    Requests carry a client-chosen [id] that the matching response
    echoes, so a pipelining client can tell responses apart even
    though the daemon completes them in whatever order cells finish. *)

val max_frame : int
(** Hard cap on a frame payload (1 MiB — a cell response is ~1 KiB). *)

val encode_frame : string -> string
(** Length prefix + payload, ready to write. *)

(** Incremental frame parser over whatever byte chunks the socket
    yields.  Feeding never fails; {!next} reports a violation once the
    buffered prefix is provably malformed. *)
type decoder

val decoder : unit -> decoder
val feed : decoder -> string -> unit
val buffered : decoder -> int

val next : decoder -> (string option, string) result
(** [Ok (Some payload)] pops one complete frame; [Ok None] means more
    bytes are needed; [Error] means the stream is unframeable (bad
    declared length) and the connection should be dropped. *)

(** {1 Requests and responses} *)

type request = {
  id : int;
  workload : string;
  mode : string;
  size : string;  (** ["quick"] or ["full"] *)
  seed : int;
  plan : string;  (** fault-plan spec, ["none"] for plain cells *)
  deadline_s : float option;
      (** client's resolve budget, propagated to the cell watchdog *)
}

val request : ?id:int -> ?seed:int -> ?plan:string -> ?deadline_s:float ->
  workload:string -> mode:string -> size:string -> unit -> request

val key_of_request : request -> string
(** The request identity the daemon dedupes and journals under:
    ["workload|mode|size|seed|plan"]. *)

type response =
  | Cell of { id : int; warm : bool; cell : Results.Json.t }
      (** the provenance-carrying cell JSON ({!Results.Cell.to_json});
          [warm] = served from the content-addressed cache *)
  | Overloaded of { id : int }
      (** admission control: queue full or client cap hit — retry
          later, nothing was scheduled *)
  | Bad_request of { id : int; reason : string }
      (** malformed frame/JSON, unknown workload/mode/size, or a cell
          {!Workloads.Workload.check_cell} rejects — a retry would fail
          identically *)
  | Failed of { id : int; reason : string }
      (** the cell itself failed (fault-plan OOM, watchdog expiry
          after retries) — the daemon survives, the request resolves *)
  | Deadline of { id : int }  (** the request's [deadline_s] expired *)

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result
val response_id : response -> int

(** {1 Blocking client IO}

    Used by the load harness and tests; the daemon side is
    non-blocking and uses {!decoder} directly. *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking full write of one frame; raises [Unix.Unix_error]. *)

val read_frame : Unix.file_descr -> (string, string) result
(** Blocking read of one frame (honours [SO_RCVTIMEO] if set on the
    fd).  [Error] on EOF, timeout or a malformed prefix. *)
