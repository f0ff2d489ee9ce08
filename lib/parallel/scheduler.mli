(** Parallel scheduler: one program's analysis, whose main loop may run
    as two processes at [-j 2] and more ({!Split}), and the one job path
    of [-j] (worker wrapper and fault policy), on which a multi-task
    program's per-task runs go. *)

module C = Astree_core
module F = Astree_frontend

(** Worker count matching the machine's available cores. *)
val default_jobs : unit -> int

(** One program's analysis under the resource budget of [cfg]
    ({!Astree_robust.Degrade.analyze}), with the split hook ({!Split})
    installed in the session: at [cfg.jobs >= 2], a main loop whose
    body calls functions with disjoint frames runs as two processes in
    lock-step, with the [-j 1] result, registry and alarms (DESIGN.md
    §7).  [?session] and [?prepared] are passed on. *)
val analyze :
  ?session:C.Transfer.session ->
  ?prepared:C.Transfer.prepared ->
  ?cfg:C.Config.t ->
  F.Tast.program ->
  C.Analysis.result

(** Forked workers running one job function, whose replies must be
    plain data (an analysis ships a {!C.Analysis.Reply.t}); with
    [jobs <= 1], jobs run in-process and nothing is forked. *)
type ('a, 'b) workers

val workers : jobs:int -> ('a -> 'b) -> ('a, 'b) workers

(** Results in job order.  Each pooled job ships its registry delta and
    trace events ({!Astree_obs.Observed}); they are absorbed in job
    order, so the registry and the event sequence are the [jobs = 1]
    run's.  A job whose worker crashed, hung or sent a reply that does
    not marshal is retried once, then recomputed in-process, bumping
    the [par.recomputed] counter. *)
val map : ('a, 'b) workers -> 'a list -> 'b list

val shutdown : ('a, 'b) workers -> unit
