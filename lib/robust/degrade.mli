(** Sound graceful degradation: when a resource budget trips, restart
    the analysis under a coarser configuration from a three-step ladder
    instead of aborting.  Every step only removes refinements, so a
    degraded run's alarms are a superset of the full run's. *)

(** Widest relational pack kept by ladder step 1 (default 3: ellipsoid
    packs survive, wider octagon/decision-tree packs are shed). *)
val shed_threshold : int ref

(** The configuration at ladder step [level] (1..3, cumulative):
    1 = shed packs wider than {!shed_threshold}, 2 = + no trace
    partitioning, 3 = + immediate threshold-less widening.  Exposed for
    the soundness property test. *)
val config_at : level:int -> Astree_core.Config.t -> Astree_core.Config.t

val max_level : int

(** Record a degradation on a result's stats. *)
val mark : Astree_core.Analysis.result -> Astree_core.Analysis.degraded ->
  Astree_core.Analysis.result

(** Must an analysis under [cfg] poll the budget: a timeout or memory
    bound is set, signal handlers are installed or an interrupt is
    pending. *)
val watching : Astree_core.Config.t -> bool

(** [govern ~attempt ~mark ~interrupted cfg p] runs [attempt] under the
    budget of [cfg] — it gets each ladder step's configuration and must
    poll {!Budget.poll} while it runs.  A trip restarts it at the next
    step within the 2x envelope and [mark]s the result with the
    {!Astree_core.Analysis.degraded} record; an interrupt returns
    [interrupted] of the interrupted step's configuration.  {!analyze}
    governs one analysis; the multi-task fixpoint governs its rounds. *)
val govern :
  attempt:(Astree_core.Config.t -> 'a) ->
  mark:('a -> Astree_core.Analysis.degraded -> 'a) ->
  interrupted:(Astree_core.Config.t -> 'a) ->
  Astree_core.Config.t ->
  Astree_frontend.Tast.program ->
  'a

(** Analyze under the budget of [cfg] ([timeout] / [max_mem_mb]);
    identical to [Analysis.analyze] when no budget is armed and no
    signal handlers are installed.  [stats.s_degraded] is [Some _] iff
    precision was shed or the run was interrupted (in which case the
    result is partial: alarms found so far, bottom final state).
    [?session] threads an existing analysis session through the ladder
    (every attempt, including degraded retries, runs under it); a fresh
    one is created otherwise. *)
val analyze :
  ?session:Astree_core.Transfer.session ->
  ?cfg:Astree_core.Config.t ->
  Astree_frontend.Tast.program ->
  Astree_core.Analysis.result
