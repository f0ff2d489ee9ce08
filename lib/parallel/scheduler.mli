(** Parallel scheduler: the entry of every analysis, whose main loop may
    run as two processes at [-j 2] and more ({!Split}), and the one job
    path of [-j] (worker wrapper and fault policy), on which a
    multi-task program's per-task runs go. *)

module C = Astree_core
module F = Astree_frontend

(** Worker count matching the machine's available cores. *)
val default_jobs : unit -> int

(** The entry of every analysis (CLI, daemon worker, per-task run,
    bench); its session's hooks follow from [cfg]: the keyed tier under
    [Config.cache_enabled] (the one call of [Summary.register]) and the
    tick {!Astree_robust.Degrade.tick}.  Without [?itf], the run goes
    through {!Astree_robust.Degrade.analyze} with the split hook: at
    [cfg.jobs >= 2] a main loop whose calls have disjoint frames runs
    as two processes, with the [-j 1] result (DESIGN.md §7).  With
    [?itf], a per-task run: no split, no ladder, only the tick. *)
val analyze :
  ?itf:C.Transfer.itf ->
  ?cfg:C.Config.t ->
  F.Tast.program ->
  C.Analysis.result

(** Forked workers running one job function, whose replies must be
    plain data (a per-task run ships its final state, its stats and a
    {!C.Transfer.delta}); with
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
