(* Daemon supervision: fork the serving process as a child, restart it
   when it dies abnormally.  See supervisor.mli. *)

module Backoff = Astree_robust.Backoff

type config = {
  s_policy : Backoff.policy;
  s_max_restarts : int;
  s_reset_after : float;
  s_verbose : bool;
  s_access_log : string option;
}

let default : config =
  {
    s_policy = Backoff.supervisor;
    s_max_restarts = 0;
    s_reset_after = 10.;
    s_verbose = false;
    s_access_log = None;
  }

(* restart records share the daemon's access log (O_APPEND one-shot
   writes; the daemon alone rotates), so an operator reads request
   outcomes and restart history from one stream *)
let log_event (cfg : config) kind fields =
  match cfg.s_access_log with
  | None -> ()
  | Some path ->
      Telemetry.append_event ~path ~now:(Unix.gettimeofday ()) kind fields

let log (cfg : config) fmt =
  Format.kasprintf
    (fun s -> if cfg.s_verbose then prerr_endline ("astreed-sup: " ^ s))
    fmt

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let run ?(config = default)
    (child : restarts:int -> sup_started:float -> int) : int =
  let sup_started = Unix.gettimeofday () in
  let child_pid = ref 0 in
  let stopping = ref false in
  (* SIGTERM/SIGINT are forwarded, not handled: the child owns the
     drain protocol.  They also mark the supervisor as stopping so the
     child's death is treated as the end, not a crash.  SIGHUP is
     ignored, here and (inherited) in the child. *)
  let forward signo =
    Sys.set_signal signo
      (Sys.Signal_handle
         (fun _ ->
           stopping := true;
           if !child_pid > 0 then
             try Unix.kill !child_pid signo with Unix.Unix_error _ -> ()))
  in
  forward Sys.sigterm;
  forward Sys.sigint;
  Sys.set_signal Sys.sighup Sys.Signal_ignore;
  let seed = Unix.getpid () in
  let rec loop ~restarts ~attempt =
    let launched = Unix.gettimeofday () in
    match Unix.fork () with
    | exception Unix.Unix_error (e, _, _) ->
        prerr_endline
          ("astreed-sup: cannot fork daemon: " ^ Unix.error_message e);
        1
    | 0 ->
        (* the serving child: restore default signal dispositions so the
           daemon's own handlers install cleanly over them *)
        Sys.set_signal Sys.sigterm Sys.Signal_default;
        Sys.set_signal Sys.sigint Sys.Signal_default;
        Unix._exit (child ~restarts ~sup_started)
    | pid -> (
        child_pid := pid;
        log config "daemon running as pid %d (restart %d)" pid restarts;
        let status = waitpid_retry pid in
        child_pid := 0;
        let uptime = Unix.gettimeofday () -. launched in
        match status with
        | Unix.WEXITED 0 ->
            log config "daemon exited cleanly, supervisor done";
            0
        | Unix.WEXITED 1 when restarts = 0 && uptime < 1.0 ->
            (* a startup failure — the socket is owned by a live daemon,
               the path is unwritable — would loop forever; fail fast
               instead.  Later exits are crashes and restart. *)
            prerr_endline "astreed-sup: daemon failed to start, giving up";
            1
        | status ->
            if !stopping then begin
              (* we forwarded a termination signal and the child still
                 died abnormally: report it, do not resurrect *)
              prerr_endline
                ("astreed-sup: daemon " ^ status_string status
               ^ " during shutdown");
              1
            end
            else if
              config.s_max_restarts > 0 && restarts + 1 > config.s_max_restarts
            then begin
              prerr_endline
                (Printf.sprintf
                   "astreed-sup: daemon %s; restart budget (%d) exhausted, \
                    giving up"
                   (status_string status) config.s_max_restarts);
              log_event config "supervisor_give_up"
                [
                  ("child_status", Json.Str (status_string status));
                  ("restarts", Json.Num (float_of_int restarts));
                ];
              1
            end
            else begin
              (* a long stable run earns a fresh backoff ladder; rapid
                 crash loops climb it toward the cap *)
              let attempt =
                if uptime >= config.s_reset_after then 0 else attempt + 1
              in
              let delay = Backoff.delay config.s_policy ~seed ~attempt in
              prerr_endline
                (Printf.sprintf
                   "astreed-sup: daemon %s after %.1fs, restarting in %.2fs \
                    (restart %d)"
                   (status_string status) uptime delay (restarts + 1));
              log_event config "restart"
                [
                  ("child_status", Json.Str (status_string status));
                  ("uptime_s", Json.Num uptime);
                  ("delay_s", Json.Num delay);
                  ("restart", Json.Num (float_of_int (restarts + 1)));
                ];
              Backoff.sleep config.s_policy ~seed ~attempt;
              if !stopping then 0 else loop ~restarts:(restarts + 1) ~attempt
            end)
  in
  loop ~restarts:0 ~attempt:0
