(** Deterministic, seed-driven fault injection.

    A fault specification ([ASTREE_FAULTS=seed:point=prob,...], the
    [ASTREE_PAR_CHAOS] legacy alias, or a programmatic {!install}) arms
    named injection points in the worker pool and the summary store.
    Firing decisions are drawn from a counter-based stream seeded by
    (seed, point, call number): the same spec replays the same fault
    schedule, so every degradation and recovery path is exercisable
    deterministically in tests and CI. *)

type point =
  | Worker_crash     (** pool worker self-kills before running a job *)
  | Worker_hang      (** pool worker sleeps {!hang_seconds} before a job *)
  | Reply_truncate   (** pool worker writes half a marshalled reply, dies *)
  | Cache_corrupt    (** summary-store read behaves as a corrupt file *)
  | Cache_write      (** summary-store write fails mid-file (ENOSPC) *)
  | Conn_drop        (** daemon drops a client connection before replying *)
  | Reply_partial    (** daemon writes half a reply line, then drops the
                         connection — a torn wire write *)
  | Daemon_crash     (** daemon process dies abruptly at admission (the
                         supervisor's restart path) *)

val point_name : point -> string

(** Sleep length of a [Worker_hang] fault (default one hour: the
    coordinator's per-job timeout is what ends a hang, not the sleep). *)
val hang_seconds : float ref

(** Should this call of the injection point inject a fault?  Consults
    the programmatic spec if one is installed, else the environment;
    always [false] when nothing is armed or inside {!with_suppressed}. *)
val fires : point -> bool

(** Arm a spec programmatically, overriding the environment. *)
val install : seed:int -> (point * float) list -> unit

(** Drop a programmatic spec (the environment applies again). *)
val clear : unit -> unit

(** Run [k] with every injection point masked.  Used by tests that
    assert exact pool or cache counters, so the full suite stays green
    under a global chaos run. *)
val with_suppressed : (unit -> 'a) -> 'a

(** How often a point actually fired in this process (test assertions). *)
val fire_count : point -> int

(** Reset call and fire counters (replay a schedule from the start). *)
val reset_counters : unit -> unit

(** Human-readable description of the active spec. *)
val describe : unit -> string
