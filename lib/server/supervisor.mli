(** Daemon supervision: run the serving process as a forked child and
    restart it whenever it dies abnormally — a crash, an abort, a
    [kill -9] — with capped, jittered exponential backoff.

    The supervisor owns no sockets and no analysis state; it only
    forks, waits and restarts, so it cannot be taken down by anything
    the daemon does.  Combined with the daemon's summary store, which
    outlives it (see {!Daemon}), a crashed daemon comes back within the
    backoff delay and is warm from its first request.

    {b Lifecycle.}  A clean child exit (code 0 — the [shutdown] verb,
    or a drained SIGTERM/SIGINT) ends the supervisor with code 0.  Exit
    code 1 on the {e first} launch within a second is a startup failure
    (socket already owned, bad path) and fails fast instead of
    restarting forever.  Everything else restarts: the backoff attempt
    climbs on rapid crash loops and resets after [s_reset_after]
    seconds of stable uptime.  SIGTERM, SIGINT and SIGHUP received by
    the supervisor are forwarded to the child (SIGHUP preserving the
    hot-reload path through the supervisor's pid). *)

type config = {
  s_policy : Astree_robust.Backoff.policy;
      (** restart delay ladder (default {!Astree_robust.Backoff.supervisor}:
          0.2s doubling to a 30s cap, 10% jitter) *)
  s_max_restarts : int;
      (** give up after this many restarts; [0] = never *)
  s_reset_after : float;
      (** seconds of child uptime that reset the backoff ladder *)
  s_verbose : bool;
  s_access_log : string option;
      (** append [restart] / [supervisor_give_up] records to the
          daemon's JSONL access log (one-shot O_APPEND writes from the
          supervisor process; the daemon alone rotates the file) *)
}

val default : config

val run :
  ?config:config -> (restarts:int -> sup_started:float -> int) -> int
(** [run child] forks [child ~restarts ~sup_started] (the daemon entry
    point; [restarts] counts completed restarts, [sup_started] is the
    supervisor's start time for uptime reporting) and supervises it
    until it exits cleanly or the restart budget runs out.  Returns the
    supervisor's exit code. *)
