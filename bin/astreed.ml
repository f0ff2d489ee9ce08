(* The analysis daemon's command line.

   Usage:  astreed --socket PATH [--max-inflight N] [--queue-depth N]
                   [--timeout SECS] [--max-mem MB] [--cache DIR]
                   [--checkpoint FILE] [--checkpoint-period SECS]
                   [--config FILE] [--client-quota N]
                   [--breaker-crashes N] [--breaker-cooldown SECS]
                   [--supervise] [--max-restarts N]
                   [--http PORT] [--access-log FILE] [--access-log-max BYTES]
                   [--trace FILE] [--verbose]

   Serves newline-delimited JSON requests (analyze / status / metrics /
   shutdown) over a Unix-domain socket.  Workers keep the typed IR
   resident across requests and share function summaries through one
   store directory: --cache DIR, SOCKET.store under --supervise (so a
   restarted daemon is warm), else a private directory under $TMPDIR
   removed at clean shutdown.  --checkpoint and --checkpoint-period are
   accepted for older scripts and ignored.  See DESIGN.md sections 12
   and 15 and README "Server mode". *)

module Srv = Astree_server
open Cmdliner

let run socket workers queue_depth timeout max_mem cache_dir checkpoint
    checkpoint_period config_file client_quota breaker_crashes
    breaker_cooldown supervise max_restarts http_port access_log
    access_log_max trace_file verbose =
  (match trace_file with
  | None -> ()
  | Some f ->
      Astree_obs.Trace.enabled := true;
      Astree_obs.Trace.set_sink (open_out f));
  if checkpoint <> None || checkpoint_period <> None then
    prerr_endline
      "astreed: note: --checkpoint and --checkpoint-period are ignored: \
       every request publishes its summaries to the store";
  let cfg =
    {
      Srv.Daemon.default with
      Srv.Daemon.d_socket = socket;
      d_workers = max 1 workers;
      d_queue_depth = max 0 queue_depth;
      d_timeout = (if timeout > 0. then timeout else 0.);
      d_max_mem = max 0 max_mem;
      d_cache_dir = cache_dir;
      d_verbose = verbose;
      d_client_quota = max 0 client_quota;
      d_breaker_n = max 0 breaker_crashes;
      d_breaker_cooldown = Float.max 0. breaker_cooldown;
      d_config_file = config_file;
      d_http_port = http_port;
      d_access_log = access_log;
      d_access_log_max = max 4096 access_log_max;
    }
  in
  let code =
    match
      match config_file with
      | None -> Ok cfg
      | Some f -> Srv.Daemon.load_config_file cfg f
    with
    | Error msg ->
        prerr_endline ("astreed: cannot load --config: " ^ msg);
        1
    | Ok cfg ->
        if supervise then
          Srv.Supervisor.run
            ~config:
              {
                Srv.Supervisor.default with
                Srv.Supervisor.s_max_restarts = max 0 max_restarts;
                s_verbose = verbose;
                s_access_log = access_log;
              }
            (fun ~restarts ~sup_started ->
              Srv.Daemon.run
                {
                  cfg with
                  Srv.Daemon.d_restarts = restarts;
                  d_supervised = true;
                  d_sup_started = sup_started;
                })
        else Srv.Daemon.run cfg
  in
  Astree_obs.Trace.close ();
  code

let cmd =
  let doc = "long-lived analysis server for astree" in
  Cmd.v
    (Cmd.info "astreed" ~doc)
    Term.(
      const run
      $ Arg.(
          value
          & opt string Srv.Daemon.default.Srv.Daemon.d_socket
          & info [ "socket" ] ~docv:"PATH"
              ~doc:"Unix-domain socket to listen on")
      $ Arg.(
          value & opt int Srv.Daemon.default.Srv.Daemon.d_workers
          & info [ "max-inflight" ]
              ~doc:
                "Worker processes, hence concurrently analyzed requests")
      $ Arg.(
          value
          & opt int Srv.Daemon.default.Srv.Daemon.d_queue_depth
          & info [ "queue-depth" ]
              ~doc:
                "Requests admitted beyond the in-flight limit; further \
                 ones are shed with a $(b,shed) reply (0 = no queue)")
      $ Arg.(
          value & opt float 0.
          & info [ "timeout" ] ~docv:"SECS"
              ~doc:
                "Default per-request wall-clock budget, applied when a \
                 request brings none (0 = unbounded)")
      $ Arg.(
          value & opt int 0
          & info [ "max-mem" ] ~docv:"MB"
              ~doc:
                "Default per-request major-heap watermark in MiB (0 = \
                 unbounded)")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "cache" ] ~docv:"DIR"
              ~doc:
                "Summary store directory the workers share: each \
                 request reads the summaries it hits from $(docv) and \
                 publishes the ones it computed, so they survive \
                 daemon restarts and serve astree $(b,--cache) runs \
                 too (default: $(i,SOCKET)$(b,.store) under \
                 $(b,--supervise), else a private directory under \
                 $(b,TMPDIR) removed at clean shutdown)")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "checkpoint" ] ~docv:"FILE"
              ~doc:
                "Ignored (with a note on stderr): every request \
                 publishes its summaries to the store")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "checkpoint-period" ] ~docv:"SECS"
              ~doc:"Ignored, like $(b,--checkpoint)")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "config" ] ~docv:"FILE"
              ~doc:
                "JSON config overlay (queue_depth, grace, timeout, \
                 max_mem, client_quota, breaker_crashes, \
                 breaker_cooldown) \
                 loaded at startup and reread on SIGHUP without \
                 dropping in-flight requests")
      $ Arg.(
          value
          & opt int Srv.Daemon.default.Srv.Daemon.d_client_quota
          & info [ "client-quota" ] ~docv:"N"
              ~doc:
                "Queued requests allowed per client connection before \
                 shedding (0 = half the queue depth)")
      $ Arg.(
          value
          & opt int Srv.Daemon.default.Srv.Daemon.d_breaker_n
          & info [ "breaker-crashes" ] ~docv:"N"
              ~doc:
                "Consecutive worker crashes on one program that open \
                 its circuit breaker (0 = no breaker)")
      $ Arg.(
          value
          & opt float Srv.Daemon.default.Srv.Daemon.d_breaker_cooldown
          & info [ "breaker-cooldown" ] ~docv:"SECS"
              ~doc:
                "Seconds an open breaker refuses a program before \
                 letting one probe request through")
      $ Arg.(
          value & flag
          & info [ "supervise" ]
              ~doc:
                "Run the daemon as a supervised child, restarted with \
                 capped exponential backoff when it crashes; without \
                 $(b,--cache) the store is $(i,SOCKET)$(b,.store), kept \
                 across restarts so they come back warm")
      $ Arg.(
          value & opt int 0
          & info [ "max-restarts" ] ~docv:"N"
              ~doc:
                "Give up supervision after $(docv) restarts (0 = keep \
                 restarting forever)")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "http" ] ~docv:"PORT"
              ~doc:
                "Serve telemetry over HTTP on 127.0.0.1:$(docv): \
                 $(b,/metrics) (Prometheus text exposition), \
                 $(b,/healthz) (liveness), $(b,/readyz) (503 while \
                 draining, saturated or all breakers open) and \
                 $(b,/status) (the status-verb JSON); 0 picks a free \
                 port")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "access-log" ] ~docv:"FILE"
              ~doc:
                "Append one JSONL record per request (rid, verb, \
                 digest, outcome, queue/service seconds, cache hits) \
                 plus start/drain/restart events to $(docv)")
      $ Arg.(
          value
          & opt int (8 * 1024 * 1024)
          & info [ "access-log-max" ] ~docv:"BYTES"
              ~doc:
                "Rotate the access log (atomic rename to \
                 $(i,FILE)$(b,.1)) when it would exceed $(docv) bytes")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"FILE"
              ~doc:
                "Write a structured event trace (requests plus \
                 re-emitted worker events) to $(docv)")
      $ Arg.(value & flag & info [ "verbose" ] ~doc:"Log requests on stderr"))

let () = exit (Cmd.eval' cmd)
