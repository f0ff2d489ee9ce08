(** Request ids and the analysis daemon's JSONL access log.

    The daemon's event loop is the only writer of a {!t}: records and
    events are synchronous calls from the loop, so the module needs no
    locking. *)

val gen_id : unit -> string
(** A fresh request id, e.g. ["r3fa91c-000007"]: a process-unique
    prefix (pid and start time hashed) plus a counter.  Clients mint
    one per request; the daemon mints one when a request arrives
    without. *)

type outcome = [ `Ok | `Error | `Dedup | `Shutting_down | `Timeout ]
(** How a request ended: served ([`Ok]), served by an identical
    in-flight job it attached to ([`Dedup]), refused because the daemon
    is draining ([`Shutting_down]), canceled at its hard deadline
    ([`Timeout]), or failed ([`Error], a worker crash included). *)

type t

val create : string option -> t
(** An access log appending one JSONL line per record and event to the
    given file; [None] logs nothing.  The file opens lazily, and an
    unwritable path drops the lines — the log never takes the daemon
    down. *)

val observe :
  t ->
  now:float ->
  ?digest:string ->
  ?queue_s:float ->
  ?service_s:float ->
  ?cache_hits:int ->
  verb:string ->
  outcome:outcome ->
  string ->
  unit
(** [observe t ~now ~verb ~outcome rid] logs one finished request as
    [{"t": .., "event": "request", "rid": .., "verb": .., "digest": ..,
    "outcome": .., "queue_s": .., "service_s": .., "cache_hits": ..}]:
    [digest] is [""] for verbs without a program (the default),
    [queue_s] runs from admission to dispatch and [service_s] is the
    worker's wall clock (both [0.] by default), [cache_hits] counts the
    summary-cache hits inside the worker. *)

val event : t -> now:float -> string -> (string * Json.t) list -> unit
(** Append a non-request lifecycle line
    [{"t": .., "event": KIND, ...fields}] — startup, drain begin,
    exit. *)

val close : t -> unit
(** Close the log's channel; a later line reopens it. *)
