(** Deterministic, seed-driven fault injection.

    A fault specification ([ASTREE_FAULTS=seed:point=prob,...] or a
    programmatic {!install}) arms named injection points in the forked
    children (pool workers, a split loop's helper) and the summary
    store.  Firing decisions are drawn from a counter-based stream
    seeded by (seed, point, call number): the same spec replays the
    same fault schedule, so every degradation and recovery path is
    exercisable deterministically in tests and CI. *)

type point =
  | Worker_crash     (** pool worker before a job, split helper at birth: dies *)
  | Worker_hang      (** pool worker sleeps {!hang_seconds} before a job *)
  | Reply_truncate   (** a forked child writes half a message, then dies *)
  | Cache_corrupt    (** summary-store read behaves as a corrupt file *)
  | Cache_write      (** summary-store write fails mid-file (ENOSPC) *)

(** Sleep length of a [Worker_hang] fault (default one hour: the
    coordinator's per-job timeout is what ends a hang, not the sleep). *)
val hang_seconds : float ref

(** Should this call of the injection point inject a fault?  Consults
    the programmatic spec if one is installed, else the environment;
    always [false] when nothing is armed or inside {!with_suppressed}. *)
val fires : point -> bool

(** Arm a spec programmatically, overriding the environment. *)
val set_generation : int -> unit
(** Set this process's spawn generation: 0 (the default) for the
    workers a pool starts with, [n] for the [n]-th replacement of a dead
    worker.  The generation keys the decision stream, so a replacement
    does not replay the faults that killed its predecessor; generation 0
    keeps every schedule a spec always gave. *)

val install : seed:int -> (point * float) list -> unit

(** Drop a programmatic spec (the environment applies again). *)
val clear : unit -> unit

(** Run [k] with every injection point masked.  Used by tests that
    assert exact pool or cache counters, so the full suite stays green
    under a global chaos run. *)
val with_suppressed : (unit -> 'a) -> 'a

(** Reset the call counters (replay a schedule from the start). *)
val reset_counters : unit -> unit

(** Human-readable description of the active spec. *)
val describe : unit -> string
