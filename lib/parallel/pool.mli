(** Fork-based worker pool: each worker is a {!Child} that serves one
    job at a time.  Jobs and replies must be pure data (closure-free
    marshalling).  Crashed or timed-out workers are killed and
    respawned; their jobs come back as [Error _] and the caller decides
    whether to retry or recompute in-process.  A worker draws
    [Faultsim]'s [Worker_crash] and [Worker_hang] per job, before
    running it, and its reply may be torn ([Reply_truncate]).

    There is one dispatch path, the slot interface: each worker is a
    slot holding at most one job, {!submit} hands a job to the lowest
    idle slot, and {!reap}/{!cancel} settle it.  {!map} runs a whole job
    list through those calls; an event loop (the analysis daemon)
    interleaves them with its own descriptors.  A caller that wants a
    job's metrics and trace events back wraps its job function in
    {!Astree_obs.Observed.job}. *)

type ('a, 'b) t

val at_child_fork : (unit -> unit) option ref
(** {!Child.at_fork}.  An event-loop caller (the analysis daemon)
    registers a closure that closes its listening and client sockets:
    a worker outliving a connection would otherwise hold the write
    side open and keep the peer from ever seeing EOF. *)

(** Fork [jobs] workers, each serving jobs with [f].
    @raise Invalid_argument if [jobs < 1]. *)
val create : jobs:int -> ('a -> 'b) -> ('a, 'b) t

val size : ('a, 'b) t -> int

(** Run every job through the slots (jobs in order, each to the lowest
    idle slot), returning results in job order whatever the completion
    order.  [timeout] bounds each job's wall-clock seconds (default
    none); an overrun kills and respawns the worker and yields
    [Error "worker timed out"]. *)
val map : ?timeout:float -> ('a, 'b) t -> 'a list -> ('b, string) result list

(** Terminate the workers (EOF, then SIGKILL after a grace period). *)
val shutdown : ('a, 'b) t -> unit

(** [with_pool ~jobs f k] runs [k] with a fresh pool, shutting it down
    on exit. *)
val with_pool : jobs:int -> ('a -> 'b) -> (('a, 'b) t -> 'c) -> 'c

(** {1 Slots} *)

(** Number of workers with no job in flight. *)
val idle_slots : ('a, 'b) t -> int

(** Hand [job] to the lowest idle worker; returns its slot, or [None]
    when all workers are busy.  A worker found dead at send time is
    respawned and the job is sent to its replacement; [None] also when
    that send fails too.  [timeout] sets the job's wall-clock deadline,
    enforced by the caller via {!expired_slots} + {!cancel}.
    @raise Invalid_argument if the pool is shut down. *)
val submit : ?timeout:float -> ('a, 'b) t -> 'a -> int option

(** (reply fd, slot) of every in-flight job. *)
val busy_fds : ('a, 'b) t -> (Unix.file_descr * int) list

(** Read the reply of slot [w] (call when its fd is readable; blocks
    until the reply is complete, and never polls the budget).  A worker
    that died mid-job or tore its reply is respawned and its job
    returns [Error "worker crashed"].
    @raise Invalid_argument if the slot is idle. *)
val reap : ('a, 'b) t -> int -> ('b, string) result

(** Abort the in-flight job of slot [w]: kill and respawn the worker,
    free the slot.  No-op on idle slots. *)
val cancel : ('a, 'b) t -> int -> unit

(** Slots whose job deadline has passed (candidates for {!cancel}). *)
val expired_slots : ('a, 'b) t -> now:float -> int list

(** Earliest in-flight job deadline ([infinity] when none). *)
val next_deadline : ('a, 'b) t -> float
