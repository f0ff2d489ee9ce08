(** Sound graceful degradation: when a resource budget trips, restart
    the analysis under a coarser configuration from a three-step ladder
    instead of aborting.  Every step only removes refinements, so a
    degraded run's alarms are a superset of the full run's. *)

(** The configuration at ladder step [level] (1..3, cumulative):
    1 = shed packs wider than 3 variables (ellipsoid packs survive,
    wider octagon and decision-tree packs are shed), 2 = + no trace
    partitioning, 3 = + immediate threshold-less widening.  Exposed for
    the soundness property test. *)
val config_at : level:int -> Astree_core.Config.t -> Astree_core.Config.t

val max_level : int

(** Record a degradation on a result's stats. *)
val mark : Astree_core.Analysis.result -> Astree_core.Analysis.degraded ->
  Astree_core.Analysis.result

(** [govern ~attempt ~mark ~interrupted cfg p] runs [attempt] under the
    budget of [cfg] — it gets each ladder step's configuration and must
    poll {!Budget.poll} while it runs.  A trip restarts it at the next
    step within the 2x envelope and [mark]s the result with the
    {!Astree_core.Analysis.degraded} record; an interrupt returns
    [interrupted] of the interrupted step's configuration.  Without a
    budget, signal handlers or a pending interrupt it is [attempt cfg].
    {!analyze} governs one analysis; the multi-task fixpoint its rounds. *)
val govern :
  attempt:(Astree_core.Config.t -> 'a) ->
  mark:('a -> Astree_core.Analysis.degraded -> 'a) ->
  interrupted:(Astree_core.Config.t -> 'a) ->
  Astree_core.Config.t ->
  Astree_frontend.Tast.program ->
  'a

(** {!Budget.poll} when an analysis under [cfg] must poll the budget. *)
val tick : Astree_core.Config.t -> (unit -> unit) option

(** Analyze under the budget of [cfg] ([timeout] / [max_mem_mb]);
    identical to [Analysis.analyze] when no budget is armed and no
    signal handlers are installed.  [stats.s_degraded] is [Some _] iff
    precision was shed or the run was interrupted (in which case the
    result is partial: alarms found so far, bottom final state).
    Every attempt runs under [?session], whose tick polls the budget;
    a fresh session with {!tick}[ cfg] is created otherwise.
    [?prepared] goes to every attempt; only the undegraded one, whose
    configuration is [cfg], can use it. *)
val analyze :
  ?session:Astree_core.Transfer.session ->
  ?prepared:Astree_core.Transfer.prepared ->
  ?cfg:Astree_core.Config.t ->
  Astree_frontend.Tast.program ->
  Astree_core.Analysis.result
