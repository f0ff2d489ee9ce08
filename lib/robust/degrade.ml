(** Sound graceful degradation.

    When a resource budget trips, the analyzer sheds precision instead
    of aborting: the analysis is restarted under a coarser configuration
    from a three-step ladder, each step cheaper than the last.

    {b Soundness.}  Every ladder step only {e removes} refinements —
    fewer relational packs, no trace partitioning, immediate widening
    without thresholds.  Each degraded run is an ordinary analysis of an
    abstraction of the same concrete semantics, so it over-approximates
    every behaviour the full-precision run covers and its alarm set is a
    superset of the full run's (the property test in [test_robust.ml]
    asserts this on every example program).  Restarting, rather than
    coarsening in flight, is what makes the argument this simple: no
    mixed-precision state ever exists.

    {b Termination.}  The ladder runs against a hard deadline of twice
    the configured budget: the full run gets the budget itself, step 1
    gets 35% of what remains, step 2 half of the rest, step 3 runs to
    the hard deadline, and if even step 3 trips the analysis is rerun at
    step 3 with the budget disarmed — step 3 is interval-speed, so this
    terminates promptly and the 2x envelope holds in practice.

    An interrupt (SIGINT/SIGTERM) is different: the user wants out, so
    there is no restart — the alarms found so far are assembled into a
    partial result marked ["interrupted"]. *)

module C = Astree_core
module D = Astree_domains
module F = Astree_frontend

(** Widest relational pack kept by the shedding step.  Ellipsoid packs
    have exactly 3 variables and digital filters are the flagship
    precision story (Sect. 6.2.3), so the default keeps them while
    dropping every wider octagon and decision-tree pack. *)
let shed_threshold = 3

(** The configuration at ladder step [level] (1..3); steps are
    cumulative.  Exposed for the soundness property test. *)
let config_at ~(level : int) (cfg : C.Config.t) : C.Config.t =
  let cfg =
    if level >= 1 then
      { cfg with C.Config.shed_packs_above = Some shed_threshold }
    else cfg
  in
  let cfg =
    if level >= 2 then
      { cfg with C.Config.partitioned_functions = []; max_partitions = 1 }
    else cfg
  in
  if level >= 3 then
    {
      cfg with
      C.Config.widening_thresholds = D.Thresholds.none;
      delay_widening = 0;
      widening_fairness = 0;
      loop_unroll = 0;
      loop_unroll_overrides = [];
    }
  else cfg

let max_level = 3

(* ------------------------------------------------------------------ *)
(* Degradation record                                                   *)
(* ------------------------------------------------------------------ *)

let pack_counts (cfg : C.Config.t) (p : F.Tast.program) : int * int * int =
  let pk = C.Packing.compute cfg p in
  ( List.length pk.C.Packing.octs,
    List.length pk.C.Packing.ells,
    List.length pk.C.Packing.dts )

(** Describe what step [level] shed relative to the original config —
    pack counts are recomputed syntactically, which is cheap next to any
    analysis that blew a budget. *)
let degraded_record (cfg : C.Config.t) (p : F.Tast.program)
    ~(reason : Budget.reason) ~(level : int) : C.Analysis.degraded =
  let o0, e0, d0 = pack_counts cfg p in
  let o1, e1, d1 = pack_counts (config_at ~level cfg) p in
  {
    C.Analysis.dg_reason = Budget.reason_to_string reason;
    dg_level = level;
    dg_shed_oct_packs = o0 - o1;
    dg_shed_ell_packs = e0 - e1;
    dg_shed_dt_packs = d0 - d1;
    dg_partitioning_disabled =
      level >= 2 && cfg.C.Config.partitioned_functions <> [];
    dg_widening_accelerated = level >= 3;
  }

let mark (r : C.Analysis.result) (dg : C.Analysis.degraded) :
    C.Analysis.result =
  {
    r with
    C.Analysis.r_stats =
      { r.C.Analysis.r_stats with C.Analysis.s_degraded = Some dg };
  }

(* ------------------------------------------------------------------ *)
(* Partial result on interrupt                                          *)
(* ------------------------------------------------------------------ *)

(** Assemble what the interrupted run had: every alarm raised so far
    (sound for the traces explored — the run did not finish, which is
    exactly what the ["interrupted"] marker says).  The final state is
    bottom: the analysis never reached the program exit. *)
let interrupted_result (ses : C.Transfer.session) (cfg : C.Config.t)
    (p : F.Tast.program) : C.Analysis.result =
  let actx =
    match ses.C.Transfer.ses_live with
    | Some a -> a
    | None -> C.Transfer.make_actx ~session:ses cfg p
  in
  {
    C.Analysis.r_alarms = C.Alarm.to_list actx.C.Transfer.alarms;
    r_final = C.Astate.bottom;
    r_actx = actx;
    r_stats =
      {
        (C.Analysis.context_stats actx p) with
        C.Analysis.s_degraded =
          Some
            {
              C.Analysis.dg_reason = "interrupted";
              dg_level = 0;
              dg_shed_oct_packs = 0;
              dg_shed_ell_packs = 0;
              dg_shed_dt_packs = 0;
              dg_partitioning_disabled = false;
              dg_widening_accelerated = false;
            };
      };
  }

(* ------------------------------------------------------------------ *)
(* The governed analysis                                                *)
(* ------------------------------------------------------------------ *)

(** Must an analysis under [cfg] poll the budget? *)
let watching (cfg : C.Config.t) : bool =
  cfg.C.Config.timeout > 0.
  || cfg.C.Config.max_mem_mb > 0
  || Budget.handlers_active ()
  || Budget.interrupt_pending ()

(** Run [attempt] under the budget of [cfg], walking the ladder on
    trips: [attempt] gets the configuration of each step and must poll
    {!Budget.poll} while it runs; [mark] records the degradation on a
    degraded step's result; an interrupt is answered by [interrupted]
    with the configuration of the interrupted step. *)
let govern ~(attempt : C.Config.t -> 'a)
    ~(mark : 'a -> C.Analysis.degraded -> 'a)
    ~(interrupted : C.Config.t -> 'a) (cfg : C.Config.t) (p : F.Tast.program)
    : 'a =
  if not (watching cfg) then attempt cfg
  else
    Fun.protect ~finally:Budget.disarm (fun () ->
        let t0 = Unix.gettimeofday () in
        let timeout = cfg.C.Config.timeout in
        let hard = if timeout > 0. then t0 +. (2.0 *. timeout) else infinity in
        (* deadline for the attempt at [level]: the full run gets the
           budget itself; degraded retries split what is left of the 2x
           envelope so the last step always has time to finish *)
        let deadline_at level =
          if timeout <= 0. then infinity
          else if level = 0 then t0 +. timeout
          else begin
            let now = Unix.gettimeofday () in
            let left = max 0.05 (hard -. now) in
            match level with
            | 1 -> now +. (0.35 *. left)
            | 2 -> now +. (0.5 *. left)
            | _ -> hard
          end
        in
        let last_reason = ref Budget.Timeout in
        let rec run level =
          Budget.arm ~deadline:(deadline_at level)
            ~max_mem_mb:cfg.C.Config.max_mem_mb ();
          let acfg = config_at ~level cfg in
          match attempt acfg with
          | r ->
              if level = 0 then r
              else mark r (degraded_record cfg p ~reason:!last_reason ~level)
          | exception Budget.Tripped Budget.Interrupted ->
              if !Astree_obs.Trace.enabled then
                Astree_obs.Trace.emit "budget.interrupt"
                  ~args:[ ("level", Astree_obs.Trace.I level) ];
              interrupted acfg
          | exception Budget.Tripped reason ->
              last_reason := reason;
              if !Astree_obs.Trace.enabled then
                Astree_obs.Trace.emit "degrade.trip"
                  ~args:
                    [
                      ("reason", Astree_obs.Trace.S
                                   (Budget.reason_to_string reason));
                      ("level", Astree_obs.Trace.I level);
                      ("next_level", Astree_obs.Trace.I (min (level + 1) max_level));
                    ];
              Astree_obs.Metrics.incr
                (Astree_obs.Metrics.counter "degrade.trips");
              if reason = Budget.Memory then Gc.compact ();
              if level >= max_level then begin
                (* even the interval-speed step blew the envelope: run it
                   once more unbudgeted so the user still gets a sound
                   (if coarse) result rather than nothing *)
                Budget.disarm ();
                mark
                  (attempt (config_at ~level:max_level cfg))
                  (degraded_record cfg p ~reason ~level:max_level)
              end
              else run (level + 1)
        in
        run 0)

(* The budget poll of an analysis under [cfg], if it must watch. *)
let tick (cfg : C.Config.t) : (unit -> unit) option =
  if watching cfg then Some Budget.poll else None

(** Analyze [p] under the resource budget of [cfg].  Without a budget
    and without signal handlers this is exactly [Analysis.analyze];
    otherwise the session's tick polls the budget, and a trip walks
    the degradation ladder.  The returned result carries
    [stats.s_degraded = Some _] iff precision was shed or the run was
    interrupted. *)
let analyze ?session ?prepared ?(cfg = C.Config.default) (p : F.Tast.program)
    : C.Analysis.result =
  let ses =
    match session with
    | Some s -> s
    | None -> C.Transfer.new_session ?tick:(tick cfg) ()
  in
  govern cfg p ~mark
    ~attempt:(fun acfg -> C.Analysis.analyze ~session:ses ?prepared ~cfg:acfg p)
    ~interrupted:(fun acfg -> interrupted_result ses acfg p)
