(* The analysis daemon's command line.

   Usage:  astreed --socket PATH [--max-inflight N] [--queue-depth N]
                   [--timeout SECS] [--max-mem MB] [--cache DIR]
                   [--supervise] [--max-restarts N]
                   [--http PORT] [--access-log FILE] [--access-log-max BYTES]
                   [--trace FILE] [--verbose]

   Serves newline-delimited JSON requests (analyze / status / metrics /
   shutdown) over a Unix-domain socket.  Workers keep the typed IR
   resident across requests and share function summaries through one
   store directory: --cache DIR, SOCKET.store under --supervise (so a
   restarted daemon is warm), else a private directory under $TMPDIR
   removed at clean shutdown.  Requests wait in one FIFO queue; SIGHUP
   is ignored.  See DESIGN.md sections 12 and 15 and
   README "Server mode". *)

module Srv = Astree_server
open Cmdliner

let run socket workers queue_depth timeout max_mem cache_dir supervise
    max_restarts http_port access_log access_log_max trace_file verbose =
  (match trace_file with
  | None -> ()
  | Some f ->
      Astree_obs.Trace.enabled := true;
      Astree_obs.Trace.set_sink (open_out f));
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
      d_http_port = http_port;
      d_access_log = access_log;
      d_access_log_max = max 4096 access_log_max;
    }
  in
  let code =
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
                 draining or while the queue is full) and \
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
