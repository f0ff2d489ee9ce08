(** The analysis daemon: a Unix-domain-socket server multiplexing
    concurrent analyze requests over the fork pool.

    One process owns the listening socket and a [select] event loop;
    requests are dispatched to long-lived pool workers (which keep the
    typed-IR cache warm), and finished requests ship back their report
    plus metrics and trace deltas, which the daemon absorbs into the
    registry served by the [metrics] verb.  Function summaries never
    cross the worker pipe: every worker reads the ones its keys hit
    from one content-addressed summary store directory and publishes
    the ones it computed there, exactly as an [astree --cache] run
    does, so an edited copy of a program hits its base's summaries.

    {b Protocol} (newline-delimited JSON, one object per line):
    requests carry a [verb] ([analyze], [status], [metrics],
    [shutdown]) and an optional [id] echoed in the reply; replies carry
    a [status] of [ok], [error] or [shutting_down] (refused: the daemon
    is draining).  Every reply also echoes a request id [rid]
    (client-minted, or assigned on arrival) that stamps the request's
    trace span and access-log line — the join key across client and
    daemon.  See DESIGN.md section 12 for the full grammar.

    {b Admission.}  Identical concurrent requests (same source digest
    and resolved options) share one worker job and each receive the
    full reply.  A request no idle worker takes waits in one unbounded
    FIFO queue; the queued requests of a client that disconnects are
    dropped.
    A worker crash fails the requests it was serving with an error
    reply; the pool respawns the worker.

    {b Shared store.}  The store directory is [d_cache_dir] when set,
    otherwise a directory private to the daemon under [$TMPDIR],
    removed at clean shutdown.  Each request publishes its new
    summaries as one fsynced file renamed into place before its reply,
    so a daemon restarted after a crash on the same directory is warm
    from its first request.  A torn, corrupt or
    foreign store file is skipped: the request runs cold, never fails.

    {b Shutdown.}  SIGINT, SIGTERM and the [shutdown] verb all route
    through the budget subsystem's interrupt flag: the daemon stops
    accepting, unlinks the socket, tells queued clients
    [shutting_down], drains in-flight requests (bounded by [d_grace]),
    removes its private store directory, if any, and exits.  SIGHUP is
    ignored: nothing is reloadable. *)

type config = {
  d_socket : string;         (** path of the listening socket *)
  d_workers : int;           (** pool size = max in-flight requests *)
  d_timeout : float;         (** default per-request budget (seconds)
                                 applied when a request brings none;
                                 [0.] = none *)
  d_max_mem : int;           (** default per-request heap watermark *)
  d_cache_dir : string option;
      (** the summary store directory every worker shares; [None] = a
          private directory under [$TMPDIR] removed at clean shutdown *)
  d_grace : float;           (** drain bound: in-flight requests still
                                 running this many seconds after
                                 shutdown started are canceled *)
  d_verbose : bool;          (** log connections and requests on stderr *)
  d_access_log : string option;
      (** JSONL access log: one line per request lifecycle record plus
          start/drain/exit events; [None] = no log *)
}

val default : config

val run : config -> int
(** Serve until interrupted; returns the process exit code ([0] after a
    clean shutdown, [1] on a startup failure such as a live daemon
    already owning the socket). *)
