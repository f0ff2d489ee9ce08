(** Operational telemetry for the analysis daemon: request ids,
    per-request lifecycle records, rolling per-verb latency quantiles, a
    structured JSONL access log with size-capped atomic rotation, and
    the Prometheus text exposition served on [GET /metrics].

    The daemon's event loop is the only writer of a {!t}: records and
    events are synchronous calls from the loop, so the module needs no
    locking.  The one cross-process entry point is {!append_event}
    (supervisor restart records): O_APPEND one-shot writes that
    interleave whole lines with the daemon's own; rotation stays owned
    by the daemon alone, so the two writers never race a rename.

    {b Exposition determinism.}  {!render_prometheus} renders families
    sorted by family name and series within a family in a fixed order
    (histogram buckets by ascending [le], labelled series by sorted
    label values), so equal registry/telemetry contents yield
    byte-identical expositions — the scrape tests diff them directly.
    The registry's families and the name and label hygiene belong to
    [Astree_obs.Metrics]; this module adds the labelled request
    families. *)

(** {1 Request ids} *)

val gen_id : unit -> string
(** A fresh request id, e.g. ["r3fa91c-000007"]: a process-unique
    prefix (pid and start time hashed) plus a counter.  Clients mint
    one per request; the daemon mints one when a request arrives
    without. *)

(** {1 Lifecycle records} *)

type outcome =
  [ `Ok | `Error | `Shed | `Dedup | `Shutting_down | `Timeout ]
(** How a request ended: served ([`Ok]), served by an identical
    in-flight job it attached to ([`Dedup]), refused because the queue
    was full ([`Shed]), refused because the daemon is draining
    ([`Shutting_down]), canceled at its hard deadline ([`Timeout]), or
    failed ([`Error], a worker crash included). *)

val outcome_string : outcome -> string

type record = {
  rc_rid : string;
  rc_verb : string;
  rc_digest : string;          (** [""] when the verb has no program *)
  rc_outcome : outcome;
  rc_queue_s : float;          (** admission to dispatch *)
  rc_service_s : float;        (** worker wall-clock *)
  rc_cache_hits : int;         (** summary-cache hits inside the worker *)
}

type t

val create : ?access_log:string -> ?max_log_bytes:int -> now:float -> unit -> t
(** A telemetry sink.  With [~access_log] every record and event is
    appended as one JSONL line; when the file would exceed
    [max_log_bytes] (default 8 MiB, floor 4 KiB) it is first rotated by
    an atomic rename to [FILE.1] (clobbering the previous generation).
    The file opens lazily, and an unwritable path degrades to in-memory
    accounting only — the log never takes the daemon down. *)

val observe : t -> now:float -> record -> unit
(** Account one finished request: feeds the verb's latency histogram
    and quantile ring with [rc_queue_s +. rc_service_s], bumps the
    (verb, outcome) count and appends the access-log line
    [{"t": .., "event": "request", "rid": .., "verb": .., "digest": ..,
    "outcome": .., "queue_s": .., "service_s": .., "cache_hits": ..}]. *)

val event : t -> now:float -> string -> (string * Json.t) list -> unit
(** Append a non-request lifecycle line
    [{"t": .., "event": KIND, ...fields}] — startup, drain begin,
    exit. *)

val append_event :
  path:string -> now:float -> string -> (string * Json.t) list -> unit
(** Like {!event} but standalone: open [path] O_APPEND, write one line,
    close.  For writers outside the daemon process (the supervisor's
    restart records); never rotates. *)

val close : t -> unit
(** Close the access-log channel (records keep accumulating in memory). *)

val started : t -> float
(** The [now] passed to {!create} — the uptime epoch. *)

(** {1 Quantiles} *)

val quantile : t -> verb:string -> float -> float option
(** [quantile t ~verb q] is the [q]-quantile (0..1) of the verb's last
    512 end-to-end latencies, or [None] before the first request. *)

val quantiles_json : t -> string
(** Per-verb rolling quantiles as one JSON object, verbs sorted:
    [{"analyze": {"p50": .., "p90": .., "p99": .., "count": ..}, ..}]. *)

(** {1 Prometheus text exposition} *)

val render_prometheus : t -> now:float -> Astree_obs.Metrics.snapshot -> string
(** The [/metrics] body: the per-verb request duration histogram and
    latency summary, per-(verb, outcome) request counts and
    [astreed_up]/[astreed_uptime_seconds], merged by family name with
    the snapshot's families
    ({!Astree_obs.Metrics.render_prometheus}). *)
