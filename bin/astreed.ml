(* The analysis daemon's command line.

   Usage:  astreed --socket PATH [--max-inflight N] [--timeout SECS]
                   [--max-mem MB] [--cache DIR] [--access-log FILE]
                   [--trace FILE] [--verbose]

   Serves newline-delimited JSON requests (analyze / status / metrics /
   shutdown) over a Unix-domain socket.  Workers share function
   summaries and report records through one store directory: --cache
   DIR (a daemon restarted on it, after a crash too, is warm), else a
   private directory under $TMPDIR removed at clean shutdown.  Requests no worker takes wait in one unbounded
   FIFO queue; SIGHUP is ignored.  See DESIGN.md sections 12 and 15 and
   README "Server mode". *)

module Srv = Astree_server
open Cmdliner

let run socket workers timeout max_mem cache_dir access_log trace_file
    verbose =
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
      d_timeout = (if timeout > 0. then timeout else 0.);
      d_max_mem = max 0 max_mem;
      d_cache_dir = cache_dir;
      d_verbose = verbose;
      d_access_log = access_log;
    }
  in
  let code = Srv.Daemon.run cfg in
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
                 too (default: a private directory under $(b,TMPDIR) \
                 removed at clean shutdown)")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "access-log" ] ~docv:"FILE"
              ~doc:
                "Append one JSONL record per request (rid, verb, \
                 digest, outcome, queue/service seconds, cache hits) \
                 plus start/drain/exit events to $(docv)")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"FILE"
              ~doc:
                "Write a structured event trace (requests plus \
                 re-emitted worker events) to $(docv)")
      $ Arg.(value & flag & info [ "verbose" ] ~doc:"Log requests on stderr"))

let () = exit (Cmd.eval' cmd)
