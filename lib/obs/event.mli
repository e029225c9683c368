(** Event vocabulary of the tracing layer.

    Every event is five machine integers — a kind, a simulated-cycle
    timestamp, a site id (index into the tracer's interned site table;
    0 = no site) and two kind-specific payload words — so recording one
    never allocates on the OCaml heap and never charges simulated cost.

    Payload conventions ([a], [b]):
    - [Region_create]: [a] = region address
    - [Region_delete]: [a] = region address, [b] = 1 if deleted, 0 if
      the reference count blocked deletion
    - [Malloc] / [Ralloc]: [a] = block address, [b] = bytes
    - [Free]: [a] = block address
    - [Page_map]: [a] = first mapped address, [b] = page count
    - [Barrier]: [a] = written address, [b] = 1 for the compile-time
      sameregion-hinted fast path, 0 for the full barrier
    - [Gc_begin]: [a] = collection ordinal (1-based)
    - [Gc_end]: [a] = live bytes found by the mark phase
    - [Phase_begin] / [Phase_end] / [Site_enter] / [Site_exit]: no
      payload; [site] names the span. *)

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

val all : kind list

val to_int : kind -> int
(** Stable small-integer encoding, used by tracer sinks and the
    binary spill format.  Code 4 is unassigned. *)

val of_int : int -> kind
(** Inverse of {!to_int}; raises [Invalid_argument] on unknown codes. *)

val name : kind -> string
