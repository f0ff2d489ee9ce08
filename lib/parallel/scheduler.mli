(** Parallel scheduler: the one job path of [-j] (worker wrapper and
    fault policy), on which a multi-task program's per-task runs go. *)

module C = Astree_core
module F = Astree_frontend

(** Worker count matching the machine's available cores. *)
val default_jobs : unit -> int

(** Alias of {!Astree_core.Analysis.analyze}: one program is analyzed
    sequentially at every [cfg.jobs].  Kept for existing callers (the
    layer benchmark uses it); new code should call [Analysis.analyze]. *)
val analyze :
  ?session:C.Transfer.session ->
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
