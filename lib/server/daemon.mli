(** The analysis daemon: a Unix-domain-socket server multiplexing
    concurrent analyze requests over the fork pool.

    One process owns the listening socket and a [select] event loop;
    requests are dispatched to long-lived pool workers (which keep the
    typed-IR cache warm), and finished requests ship back their report
    plus summary-table, metrics and trace deltas.  The daemon absorbs
    the deltas: summaries accumulate in a resident per-program store
    that seeds later requests ([ses_preload]), metrics accumulate in
    the registry served by the [metrics] verb.

    {b Protocol} (newline-delimited JSON, one object per line):
    requests carry a [verb] ([analyze], [status], [metrics],
    [shutdown]) and an optional [id] echoed in the reply; replies carry
    a [status] of [ok], [error], [shed] (admission refused: queue full
    or per-client quota, with a [retry_after_s] pacing hint) or
    [shutting_down].  Every reply also echoes a request id [rid]
    (client-minted, or assigned on arrival) that stamps the request's
    trace span and access-log line — the join key across client,
    daemon and telemetry.  See DESIGN.md section 12 for the full
    grammar.

    {b Admission and fairness.}  Identical concurrent requests (same
    source digest and resolved options) share one worker job and each
    receive the full reply.  Queued work is held per client connection
    and dispatched round-robin, bounded per client by [d_client_quota];
    a program whose analysis crashed its worker [d_breaker_n] times in
    a row is refused by a circuit breaker until [d_breaker_cooldown]
    elapses, then probed half-open.

    {b Warm-state checkpoint.}  With [d_checkpoint] set, the resident
    summary store is periodically (and at shutdown) written through the
    atomic blob store, and reloaded at startup: a daemon restarted
    after a crash is warm within one request.  A torn or corrupt
    checkpoint degrades to a cold start, never an error.

    {b Hot reload.}  SIGHUP rereads [d_config_file] (when given) and
    swaps the admission-time knobs — queue depth, grace, per-request
    budget, client quota, breaker and checkpoint parameters — without
    touching in-flight requests; [status] reports the config
    generation.

    {b Shutdown.}  SIGINT, SIGTERM and the [shutdown] verb all route
    through the budget subsystem's interrupt flag: the daemon stops
    accepting, unlinks the socket, tells queued clients
    [shutting_down], drains in-flight requests (bounded by [d_grace]),
    checkpoints and flushes the resident store and exits. *)

type config = {
  d_socket : string;         (** path of the listening socket *)
  d_workers : int;           (** pool size = max in-flight requests *)
  d_queue_depth : int;       (** admission queue bound; 0 = no queue *)
  d_timeout : float;         (** default per-request budget (seconds)
                                 applied when a request brings none;
                                 [0.] = none *)
  d_max_mem : int;           (** default per-request heap watermark *)
  d_cache_dir : string option;
      (** persist the resident summary store here at shutdown, and use
          it as the workers' summary cache directory *)
  d_max_programs : int;      (** resident-store program cap (LRU-ish) *)
  d_grace : float;           (** drain bound: in-flight requests still
                                 running this many seconds after
                                 shutdown started are canceled *)
  d_verbose : bool;          (** log connections and requests on stderr *)
  d_client_quota : int;      (** queued requests allowed per connection;
                                 [0] = auto ([queue_depth / 2], min 1) *)
  d_breaker_n : int;         (** consecutive worker crashes on one
                                 program that open its circuit breaker;
                                 [0] disables the breaker *)
  d_breaker_cooldown : float;
      (** seconds an open breaker refuses a program before letting one
          half-open probe through *)
  d_checkpoint : string option;
      (** warm-state checkpoint file; [None] = no checkpointing *)
  d_checkpoint_s : float;    (** seconds between periodic checkpoint
                                 saves ([0.] = every loop iteration
                                 with dirty state) *)
  d_config_file : string option;
      (** JSON config overlay reread on SIGHUP *)
  d_restarts : int;          (** supervisor restart count, surfaced in
                                 [status] (set via [ASTREED_RESTARTS]) *)
  d_supervised : bool;       (** running under [astreed --supervise] *)
  d_sup_started : float;     (** supervisor start time (epoch seconds;
                                 [0.] = not supervised) *)
  d_http_port : int option;
      (** telemetry HTTP listener on [127.0.0.1:port] serving
          [/metrics], [/healthz], [/readyz] and [/status]; [Some 0]
          picks a free port, [None] (default) disables the listener *)
  d_access_log : string option;
      (** JSONL access log: one line per request lifecycle record plus
          start/drain/checkpoint/exit events; [None] = no log *)
  d_access_log_max : int;
      (** access-log rotation threshold in bytes: when the next line
          would exceed it the file is atomically renamed to [FILE.1]
          and restarted *)
}

val default : config

val load_config_file : config -> string -> (config, string) result
(** Overlay the admission-time knobs from a JSON file
    ([queue_depth], [grace], [timeout], [max_mem], [client_quota],
    [checkpoint_period], [breaker_crashes], [breaker_cooldown]) onto
    [config].  Unknown members are ignored;
    unreadable or unparsable files are an [Error].  Used for the
    initial [--config] load and by the SIGHUP reload. *)

val run : config -> int
(** Serve until interrupted; returns the process exit code ([0] after a
    clean shutdown, [1] on a startup failure such as a live daemon
    already owning the socket). *)
