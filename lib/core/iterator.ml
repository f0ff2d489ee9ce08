(** The iterator (Sect. 5.3–5.5): abstract execution by induction on the
    abstract syntax, with

    - iteration mode (invariant generation, no warnings) and checking
      mode (one extra pass over loop bodies collecting potential errors),
    - least-fixpoint approximation with widening (thresholds,
      Sect. 7.1.2; delayed with fairness, Sect. 7.1.3; floating
      perturbation, Sect. 7.1.4) and narrowing,
    - semantic loop unrolling (Sect. 7.1.1),
    - trace partitioning in selected functions (Sect. 7.1.5),
    - context-sensitive polyvariant analysis of function calls,
      semantically equivalent to inlining (Sect. 5.4). *)

module F = Astree_frontend
module D = Astree_domains
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace
open F.Tast

exception Analysis_error of string

(* Registry entries owned by the iterator (created once at module init;
   bumping one is a single field increment). *)
let c_cache_hits = Metrics.counter "cache.hits"
let c_cache_misses = Metrics.counter "cache.misses"
let c_calls_inlined = Metrics.counter "iter.calls_inlined"
let c_loops = Metrics.counter "iter.loops"
let c_par_jobs = Metrics.counter "par.jobs_dispatched"
let c_par_deltas = Metrics.counter "par.deltas_applied"
let h_loop_iters = Metrics.histogram "loop.iters"

(* Same entry as the one bumped inside Itv.widen: read around a loop's
   fixpoint to attribute threshold catches to that loop head. *)
let c_threshold_hits = Metrics.counter "widen.threshold_hits"

(** Flow-separated analysis outcome of a statement or block.  [o_norm]
    is a disjunction of abstract states (a singleton except under trace
    partitioning).  Defined in [Transfer] (with the other session data
    types) and re-exported here, its historical home. *)
type outcome = Transfer.outcome = {
  o_norm : Astate.t list;
  o_brk : Astate.t;
  o_cont : Astate.t;
  o_ret : Astate.t;
  o_retv : D.Itv.t;
}

let no_flow =
  {
    o_norm = [];
    o_brk = Astate.bottom;
    o_cont = Astate.bottom;
    o_ret = Astate.bottom;
    o_retv = D.Itv.Bot;
  }

let join_itv a b =
  if D.Itv.is_bot a then b else if D.Itv.is_bot b then a else D.Itv.join a b

let join_states (sts : Astate.t list) : Astate.t =
  List.fold_left Astate.join Astate.bottom sts

let live (sts : Astate.t list) : Astate.t list =
  List.filter (fun s -> not (Astate.is_bot s)) sts

(* Merge excess partitions (safety bound of Sect. 7.1.5's cost remark). *)
let cap_partitions (a : Transfer.actx) (sts : Astate.t list) : Astate.t list =
  let sts = live sts in
  let maxp = a.Transfer.cfg.Config.max_partitions in
  if List.length sts <= maxp then sts
  else
    let rec split n acc = function
      | [] -> (List.rev acc, [])
      | l when n = 0 -> (List.rev acc, l)
      | x :: rest -> split (n - 1) (x :: acc) rest
    in
    let keep, over = split (maxp - 1) [] sts in
    keep @ [ join_states over ]

(* ------------------------------------------------------------------ *)
(* Parallel dispatch hook (Astree_parallel, after Monniaux 05)          *)
(* ------------------------------------------------------------------ *)

(* The analysis parallelizes along the disjunctions it already
   manipulates: the trace-partition disjuncts flowing into a call and
   the two branches of a conditional are analyzed independently from
   their own entry states and merged by abstract join — exactly the
   joins the sequential iterator performs, in the same order, so the
   parallel result is identical by construction.

   The iterator stays process-agnostic: when the session's par hook is
   installed (by Astree_parallel.Scheduler in the parent process)
   eligible disjunct maps are handed to it as self-contained jobs; a [None]
   reply means the job was lost (crashed or timed-out worker, already
   retried) and the iterator recomputes it in-process, so parallel
   analysis can neither hang nor lose soundness. *)

(* ------------------------------------------------------------------ *)
(* Function-summary cache hook (Astree_incremental)                     *)
(* ------------------------------------------------------------------ *)

(* Context-sensitive polyvariant inlining (Sect. 5.4) re-analyzes a
   callee for every call context; the summary cache pays for each
   distinct (callee, abstract entry state) pair once.  The iterator
   stays storage-agnostic: the incremental subsystem installs the
   session's memo, whose key function folds the callee's content
   fingerprint (structure, types, transitive callee hashes, config) and
   source locations with a digest of the exact abstract entry state —
   no entailment shortcut, so a hit is equivalent to re-analysis by
   construction. *)

(** Everything one analyzed call produced: the state at the return
    point, the merged return value, and the side effects on the
    context's bookkeeping.  Pure data — marshalled into parallel deltas
    and into the on-disk store. *)
type summary = Transfer.summary = {
  sm_exit : Astate.t;  (** state after the return-point trace merge *)
  sm_retv : D.Itv.t;   (** return value (Bot for void / no return) *)
  sm_delta : Transfer.capture_delta;
}

(** Cache key: callee content fingerprint (covers the analysis
    configuration) folded with the source locations of the callee and
    its transitive callees, digest of the abstract entry state together
    with the by-reference parameter bindings, and the alarm-collector
    mode — iteration-mode and checking-mode results are never
    conflated. *)
type summary_key = Transfer.summary_key = {
  sk_fn : string;
  sk_entry : string;
  sk_checking : bool;
}

type call_memo = Transfer.call_memo = {
  cm_key :
    fname:string -> checking:bool -> Astate.t -> Transfer.binds ->
    summary_key option;
      (** [None]: this call is not cacheable (unknown fingerprint) *)
  cm_find : summary_key -> summary option;
  cm_add : summary_key -> summary -> unit;
  cm_fresh : (summary_key * summary) list ref;
      (** summaries computed by this process since the last drain, in
          computation order — parallel workers ship them back in their
          job deltas *)
  cm_hits : int ref;
  cm_misses : int ref;
  cm_want : string -> bool;
      (** gate: is this callee worth memoizing at all?  Computed once
          per session from the transitive inlined size of each function
          against {!memo_min_stmts} *)
}

(** Minimal transitive inlined statement count of a callee before
    memoization is worth the entry-state digest.  The digest is a
    Merkle digest over the shared maps, so it costs time in what
    changed since the last keyed state — on a fused 2 kLOC member,
    0.07–0.09 ms per key warm and ~0.5 ms cold, against ~0.6 ms for
    hashing the whole 130 KB state (DESIGN.md §8) — plus the lookup
    and, on a miss, the capture.
    Memoizing tiny helpers is still a net loss; only callees whose
    re-analysis (including everything they inline) dwarfs that cost
    deserve a summary. *)
let memo_min_stmts = ref 30

(** A unit of work shipped to a worker: pure data, marshalled. *)
type par_work = Transfer.par_work =
  | Pw_block of block  (** execute a block (a conditional branch) *)
  | Pw_call of { dst : var option; fname : string; args : arg list }

type par_job = Transfer.par_job = {
  pj_work : par_work;
  pj_binds : Transfer.binds;
  pj_stack : string list;
  pj_part : bool;
  pj_state : Astate.t;  (** the single entry state of the job *)
  pj_checking : bool;   (** alarm-collector mode at the dispatch point *)
}

(** Side effects of a job on the analysis context, replayed by the
    parent in job order so that merged results are deterministic. *)
type par_delta = Transfer.par_delta = {
  pd_alarms : Alarm.t list;
  pd_invariants : (int * Astate.t) list;  (** loop id -> head invariant *)
  pd_joins : int;
  pd_oct_useful : int list;
  pd_summaries : (summary_key * summary) list;
      (** summaries freshly computed while running the job, shipped back
          so the parent (and later jobs) reuse them *)
  pd_cache_hits : int;
  pd_cache_misses : int;
  pd_metrics : Metrics.snapshot;
      (** registry delta accumulated while running the job (profile
          probes included), absorbed by the parent at merge so [-j n]
          reports are as complete as sequential ones *)
  pd_events : Trace.event list;
      (** trace events emitted while running the job, re-emitted by the
          parent in job order *)
}

type par_reply = Transfer.par_reply = {
  pr_out : outcome;
  pr_delta : par_delta;
}

(** Minimal statement count of a block before it is worth shipping to a
    worker (marshalling an abstract state is not free). *)
let par_min_stmts = ref 24

(* block sizes are memoized by the location of the block's first
   statement (loops revisit the same blocks many times): gating only, a
   collision can at worst mis-route a job *)
let size_memo : (F.Loc.t, int) Hashtbl.t = Hashtbl.create 256

let par_block_size (b : block) : int =
  match b with
  | [] -> 0
  | s0 :: _ -> (
      match Hashtbl.find_opt size_memo s0.sloc with
      | Some n -> n
      | None ->
          let n = block_size b in
          Hashtbl.replace size_memo s0.sloc n;
          n)

let apply_delta (a : Transfer.actx) (d : par_delta) : unit =
  Metrics.incr c_par_deltas;
  Metrics.absorb d.pd_metrics;
  if !Trace.enabled then begin
    Trace.absorb d.pd_events;
    Trace.emit "par.apply"
      ~args:
        [
          ("alarms", Trace.I (List.length d.pd_alarms));
          ("joins", Trace.I d.pd_joins);
          ("summaries", Trace.I (List.length d.pd_summaries));
        ]
  end;
  Alarm.absorb a.Transfer.alarms d.pd_alarms;
  List.iter
    (fun (id, st) -> Hashtbl.replace a.Transfer.invariants id st)
    d.pd_invariants;
  List.iter
    (fun id -> Hashtbl.replace a.Transfer.oct_useful id ())
    d.pd_oct_useful;
  a.Transfer.join_count <- a.Transfer.join_count + d.pd_joins;
  (* summaries computed by the worker become available to the parent and
     to later jobs; [cm_add] keeps the first entry per key, and the same
     key always maps to an identical summary, so replay order cannot
     change results *)
  match a.Transfer.session.Transfer.ses_memo with
  | None -> ()
  | Some m ->
      List.iter (fun (k, s) -> m.cm_add k s) d.pd_summaries;
      m.cm_hits := !(m.cm_hits) + d.pd_cache_hits;
      m.cm_misses := !(m.cm_misses) + d.pd_cache_misses

let mk_job (a : Transfer.actx) ~(binds : Transfer.binds)
    ~(stack : string list) ~(part : bool) (work : par_work) (st : Astate.t) :
    par_job =
  {
    pj_work = work;
    pj_binds = binds;
    pj_stack = stack;
    pj_part = part;
    pj_state = st;
    pj_checking = a.Transfer.alarms.Alarm.enabled;
  }

(* ------------------------------------------------------------------ *)
(* Statement tick                                                       *)
(* ------------------------------------------------------------------ *)

(* The resource governor (Astree_robust.Budget) needs a periodic check
   point inside the fixpoint engine without the core depending on it, so
   — like the parallel and memo hooks — it installs a session hook.  The
   hook is only consulted every 256 abstract statements: the common path
   is one increment, one land and one branch. *)

let tick (a : Transfer.actx) =
  let s = a.Transfer.session in
  s.Transfer.ses_ticks <- s.Transfer.ses_ticks + 1;
  if s.Transfer.ses_ticks land 0xFF = 0 then
    match s.Transfer.ses_tick_hook with None -> () | Some h -> h ()

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

(* Metered widening for the fixpoint loop below: one probe around the
   whole [Astate.widen] (env + all relational packs) so --profile can
   attribute iteration cost to extrapolation separately from the
   per-domain octagon widening probe. *)
let widen_state ~thresholds (inv : Astate.t) (next : Astate.t) : Astate.t =
  D.Profile.count D.Profile.widen_total;
  let t0 = D.Profile.start () in
  let r = Astate.widen ~thresholds inv next in
  D.Profile.stop D.Profile.widen_total t0;
  r

let rec exec_stmt (a : Transfer.actx) ~(part : bool) ~(stack : string list)
    (binds : Transfer.binds) (sts : Astate.t list) (s : stmt) : outcome =
  tick a;
  (* keep the collector's inlining context in sync with the iterator's
     stack, so every alarm reported below picks up its call chain (one
     field write; the lists are shared, not copied) *)
  a.Transfer.alarms.Alarm.chain <- stack;
  match live sts with
  | [] -> no_flow
  | sts -> (
      match s.sdesc with
      | Sskip -> { no_flow with o_norm = sts }
      | Sassign (lv, e) ->
          {
            no_flow with
            o_norm = List.map (fun st -> Transfer.assign a st binds lv e) sts;
          }
      | Slocal (v, init) ->
          {
            no_flow with
            o_norm =
              List.map (fun st -> Transfer.local_decl a st binds v init) sts;
          }
      | Swait ->
          { no_flow with o_norm = List.map (fun st -> Transfer.wait a st) sts }
      | Sassume e ->
          {
            no_flow with
            o_norm = List.map (fun st -> Transfer.guard a st binds e true) sts;
          }
      | Sassert e ->
          let check st =
            let bad = Transfer.guard a st binds e false in
            if not (Astate.is_bot bad) then begin
              let err = ref false in
              let i = Transfer.eval a st binds err e in
              Alarm.report
                ~domain:(Transfer.value_domain a st binds e)
                ~operands:[ (Fmt.str "%a" F.Pp.pp_expr e, Fmt.str "%a" D.Itv.pp i) ]
                a.Transfer.alarms Alarm.Assert_failure s.sloc
                "assertion may not hold"
            end;
            Transfer.guard a st binds e true
          in
          { no_flow with o_norm = List.map check sts }
      | Sbreak -> { no_flow with o_brk = join_states sts }
      | Scontinue -> { no_flow with o_cont = join_states sts }
      | Sreturn None -> { no_flow with o_ret = join_states sts }
      | Sreturn (Some e) ->
          let retv =
            List.fold_left
              (fun acc st ->
                let err = ref false in
                join_itv acc (Transfer.eval a st binds err e))
              D.Itv.Bot sts
          in
          { no_flow with o_ret = join_states sts; o_retv = retv }
      | Sif (c, tb, fb) ->
          (* both branches are analyzed independently from their guarded
             entry states and merged by join: the disjunction the
             parallel subsystem splits along (axis (a)) *)
          let run_both st =
            let st_t = Transfer.guard a st binds c true in
            let st_f = Transfer.guard a st binds c false in
            let ot = exec_block a ~part ~stack binds [ st_t ] tb in
            let of_ = exec_block a ~part ~stack binds [ st_f ] fb in
            (ot, of_)
          in
          let pairs =
            match a.Transfer.session.Transfer.ses_par_hook with
            | Some dispatch
              when par_block_size tb >= !par_min_stmts
                   && par_block_size fb >= !par_min_stmts ->
                let guarded =
                  List.map
                    (fun st ->
                      ( Transfer.guard a st binds c true,
                        Transfer.guard a st binds c false ))
                    sts
                in
                let jobs =
                  List.concat_map
                    (fun (st_t, st_f) ->
                      [
                        mk_job a ~binds ~stack ~part (Pw_block tb) st_t;
                        mk_job a ~binds ~stack ~part (Pw_block fb) st_f;
                      ])
                    guarded
                in
                Metrics.add c_par_jobs (List.length jobs);
                if !Trace.enabled then
                  Trace.emit "par.dispatch"
                    ~loc:(Fmt.str "%a" F.Loc.pp s.sloc)
                    ~args:
                      [
                        ("work", Trace.S "if-branches");
                        ("jobs", Trace.I (List.length jobs));
                      ];
                let replies = dispatch jobs in
                let rec pair_up gs rs =
                  match (gs, rs) with
                  | [], [] -> []
                  | (st_t, st_f) :: gs', rt :: rf :: rs' ->
                      let ot =
                        match rt with
                        | Some r ->
                            apply_delta a r.pr_delta;
                            r.pr_out
                        | None -> exec_block a ~part ~stack binds [ st_t ] tb
                      in
                      let of_ =
                        match rf with
                        | Some r ->
                            apply_delta a r.pr_delta;
                            r.pr_out
                        | None -> exec_block a ~part ~stack binds [ st_f ] fb
                      in
                      (ot, of_) :: pair_up gs' rs'
                  | _ -> invalid_arg "Iterator.par_hook: reply arity mismatch"
                in
                pair_up guarded replies
            | _ -> List.map run_both sts
          in
          let outs =
            List.map
              (fun (ot, of_) ->
                a.Transfer.join_count <- a.Transfer.join_count + 1;
                {
                  o_norm =
                    (if part then cap_partitions a (ot.o_norm @ of_.o_norm)
                     else [ Astate.join (join_states ot.o_norm)
                              (join_states of_.o_norm) ]);
                  o_brk = Astate.join ot.o_brk of_.o_brk;
                  o_cont = Astate.join ot.o_cont of_.o_cont;
                  o_ret = Astate.join ot.o_ret of_.o_ret;
                  o_retv = join_itv ot.o_retv of_.o_retv;
                })
              pairs
          in
          List.fold_left
            (fun acc o ->
              {
                o_norm = acc.o_norm @ o.o_norm;
                o_brk = Astate.join acc.o_brk o.o_brk;
                o_cont = Astate.join acc.o_cont o.o_cont;
                o_ret = Astate.join acc.o_ret o.o_ret;
                o_retv = join_itv acc.o_retv o.o_retv;
              })
            no_flow outs
          |> fun o -> { o with o_norm = cap_partitions a o.o_norm }
      | Swhile (li, c, body) ->
          (* partitions are merged at loop heads *)
          let st = join_states sts in
          exec_while a ~stack binds st (li, c, body)
      | Scall (dst, fname, args) -> exec_call a ~stack binds sts s dst fname args)

and exec_block (a : Transfer.actx) ~(part : bool) ~(stack : string list)
    (binds : Transfer.binds) (sts : Astate.t list) (b : block) : outcome =
  List.fold_left
    (fun acc stmt ->
      match live acc.o_norm with
      | [] -> acc
      | sts ->
          let o = exec_stmt a ~part ~stack binds sts stmt in
          {
            o_norm = o.o_norm;
            o_brk = Astate.join acc.o_brk o.o_brk;
            o_cont = Astate.join acc.o_cont o.o_cont;
            o_ret = Astate.join acc.o_ret o.o_ret;
            o_retv = join_itv acc.o_retv o.o_retv;
          })
    { no_flow with o_norm = sts }
    b

(* ------------------------------------------------------------------ *)
(* Loops (Sect. 5.4, 5.5, 7.1)                                         *)
(* ------------------------------------------------------------------ *)

and exec_while (a : Transfer.actx) ~(stack : string list)
    (binds : Transfer.binds) (entry : Astate.t)
    ((li, c, body) : loop_info * expr * block) : outcome =
  let cfg = a.Transfer.cfg in
  let thresholds = cfg.Config.widening_thresholds in
  (* one pass over the loop body from [st]; returns (after-body state,
     outcome for break/return accounting) *)
  let body_pass st =
    let body_in = Transfer.guard a st binds c true in
    let o = exec_block a ~part:false ~stack binds [ body_in ] body in
    let after = Astate.join (join_states o.o_norm) o.o_cont in
    (after, o)
  in
  (* ---- semantic unrolling (Sect. 7.1.1) ---- *)
  let unroll = Config.unroll_for cfg li.loop_id in
  let rec do_unroll k st exits rets retv =
    if k = 0 || Astate.is_bot st then (st, exits, rets, retv)
    else begin
      let after, o = body_pass st in
      let exits =
        Astate.join exits
          (Astate.join (Transfer.guard a st binds c false) o.o_brk)
      in
      do_unroll (k - 1) after exits (Astate.join rets o.o_ret)
        (join_itv retv o.o_retv)
    end
  in
  let st0, exits0, rets0, retv0 =
    do_unroll unroll entry Astate.bottom Astate.bottom D.Itv.Bot
  in
  if Astate.is_bot st0 then
    { no_flow with o_norm = [ exits0 ]; o_ret = rets0; o_retv = retv0 }
  else begin
    (* ---- fixpoint in iteration mode (Sect. 5.5) ---- *)
    Metrics.incr c_loops;
    let n_widens = ref 0 and n_narrows = ref 0 and n_iters = ref 0 in
    let thr_hits0 = Metrics.value c_threshold_hits in
    let saved_mode = a.Transfer.alarms.Alarm.enabled in
    a.Transfer.alarms.Alarm.enabled <- false;
    let count_unstable (old_ : Astate.t) (next : Astate.t) : int =
      if Astate.is_bot next then 0
      else if Astate.is_bot old_ then max_int
      else begin
        let n = ref 0 in
        Env.iter
          (fun id nv ->
            match Env.find old_.Astate.env id with
            | Some ov -> if not (Avalue.subset nv ov) then incr n
            | None -> incr n)
          next.Astate.env;
        !n
      end
    in
    let eps = cfg.Config.float_iteration_epsilon in
    let trace = Sys.getenv_opt "ASTREE_ITER_TRACE" <> None in
    let trace_state tag (st : Astate.t) =
      if trace then begin
        Fmt.epr "[loop %d] %s:" li.loop_id tag;
        List.iter
          (fun (v, _) ->
            if F.Ctypes.is_scalar v.v_ty then
              Fmt.epr " %s=%a" v.v_name D.Itv.pp (Transfer.var_itv a st v))
          a.Transfer.prog.p_globals;
        Fmt.epr "@."
      end
    in
    let rec iterate i fairness prev_unstable (inv : Astate.t) : Astate.t =
      n_iters := i;
      let after, _o = body_pass inv in
      let next = Astate.join st0 after in
      trace_state (Fmt.str "iter %d" i) next;
      if trace && not (Astate.is_bot inv) && not (Astate.is_bot next) then begin
        Env.iter
          (fun id nv ->
            match Env.find inv.Astate.env id with
            | Some ov when not (Avalue.subset nv ov) ->
                Fmt.epr "[loop %d]   unstable cell %a: %a vs %a@." li.loop_id
                  Cell.pp
                  (Cell.of_id a.Transfer.intern id)
                  Avalue.pp nv Avalue.pp ov
            | _ -> ())
          next.Astate.env;
        if not (Relstate.subset next.Astate.rel inv.Astate.rel) then
          Fmt.epr "[loop %d]   relational part unstable@." li.loop_id
      end;
      if Astate.subset next inv then inv
      else begin
        let unstable = count_unstable inv next in
        (* floating iteration perturbation (Sect. 7.1.4): when the iterate
           is almost stable (abstract rounding noise only), try the
           epsilon-enlarged candidate F-hat before widening any further;
           the stability check itself always uses the unperturbed F *)
        let try_hat () =
          if unstable > 4 || eps <= 0.0 then None
          else begin
            let inv_hat = Astate.perturb eps (Astate.join inv next) in
            let after_hat, _ = body_pass inv_hat in
            if Astate.subset (Astate.join st0 after_hat) inv_hat then
              Some inv_hat
            else None
          end
        in
        match try_hat () with
        | Some stable -> stable
        | None ->
            if i > 500 then begin
              (* safety net: force the classical widening straight to
                 infinity so the fixpoint computation always terminates *)
              incr n_widens;
              iterate (i + 1) 0 unstable
                (widen_state ~thresholds:D.Thresholds.none inv next)
            end
            else if i < cfg.Config.delay_widening then
              iterate (i + 1) fairness unstable (Astate.join inv next)
            else if
              (unstable < prev_unstable || unstable = 0) && fairness > 0
            then
              (* delayed widening: some variable just became stable
                 (Sect. 7.1.3), keep joining under the fairness budget.
                 [unstable = 0] means only relational constraints are
                 still settling (they converge a couple of iterations
                 after the cells do): give them the same grace. *)
              iterate (i + 1) (fairness - 1) unstable (Astate.join inv next)
            else begin
              incr n_widens;
              iterate (i + 1) fairness unstable
                (widen_state ~thresholds inv next)
            end
      end
    in
    let inv = iterate 0 cfg.Config.widening_fairness max_int st0 in
    (* ---- narrowing iterations (Sect. 5.5) ----
       decreasing iterations from the post-fixpoint: when F(I) <= I, the
       iterate F(I) is itself an invariant provided it remains a
       post-fixpoint, which is re-verified before adopting it.  This
       recovers from widening overshoots (finite thresholds above the
       real bound), which the classical infinite-bounds-only narrowing
       cannot. *)
    let rec narrow k inv =
      if k = 0 then inv
      else begin
        let after, _ = body_pass inv in
        let next = Astate.join st0 after in
        if Astate.subset next inv && not (Astate.equal next inv) then begin
          let check, _ = body_pass next in
          if Astate.subset (Astate.join st0 check) next then begin
            incr n_narrows;
            narrow (k - 1) next
          end
          else
            (* fall back to the classical narrowing on infinite bounds *)
            let narrowed = Astate.narrow inv next in
            let check, _ = body_pass narrowed in
            if Astate.subset (Astate.join st0 check) narrowed then begin
              incr n_narrows;
              narrowed
            end
            else inv
        end
        else inv
      end
    in
    let inv = narrow cfg.Config.narrowing_iterations inv in
    a.Transfer.alarms.Alarm.enabled <- saved_mode;
    Metrics.observe h_loop_iters !n_iters;
    if !Trace.enabled then
      Trace.emit "loop.fixpoint"
        ~loc:(Fmt.str "%a" F.Loc.pp c.eloc)
        ~args:
          [
            ("loop", Trace.I li.loop_id);
            ("iters", Trace.I !n_iters);
            ("widens", Trace.I !n_widens);
            ("narrows", Trace.I !n_narrows);
            ("stabilized_at", Trace.I !n_iters);
            ( "threshold_hits",
              Trace.I (Metrics.value c_threshold_hits - thr_hits0) );
          ];
    (* save the loop invariant for examination (Sect. 5.3) *)
    Hashtbl.replace a.Transfer.invariants li.loop_id inv;
    (* ---- extra pass, in checking mode if enabled (Sect. 5.4) ---- *)
    let _, o_final = body_pass inv in
    let exit_ = Transfer.guard a inv binds c false in
    {
      no_flow with
      o_norm = [ Astate.join exits0 (Astate.join exit_ o_final.o_brk) ];
      o_ret = Astate.join rets0 o_final.o_ret;
      o_retv = join_itv retv0 o_final.o_retv;
    }
  end

(* ------------------------------------------------------------------ *)
(* Function calls (Sect. 5.4)                                          *)
(* ------------------------------------------------------------------ *)

and exec_call (a : Transfer.actx) ~(stack : string list)
    (binds : Transfer.binds) (sts : Astate.t list) (s : stmt)
    (dst : var option) (fname : string) (args : arg list) : outcome =
  match find_fun a.Transfer.prog fname with
  | None ->
      raise (Analysis_error (Fmt.str "call to unknown function %s" fname))
  | Some fd ->
      if List.mem fname stack then
        raise
          (Analysis_error
             (Fmt.str "recursion detected through %s (not in the subset)"
                fname));
      ignore s;
      let sts = live sts in
      let run st = exec_call_one a ~stack binds st dst fname fd args in
      (* trace-partition disjuncts flowing into a call are analyzed
         through the callee independently: the prime intra-program
         parallel axis (each worker runs one disjunct) *)
      (match a.Transfer.session.Transfer.ses_par_hook with
      | Some dispatch
        when List.compare_length_with sts 2 >= 0
             && par_block_size fd.fd_body >= !par_min_stmts ->
          let jobs =
            List.map
              (fun st ->
                mk_job a ~binds ~stack ~part:false
                  (Pw_call { dst; fname; args })
                  st)
              sts
          in
          Metrics.add c_par_jobs (List.length jobs);
          if !Trace.enabled then
            Trace.emit "par.dispatch"
              ~loc:(Fmt.str "%a" F.Loc.pp s.sloc)
              ~args:
                [
                  ("work", Trace.S fname);
                  ("jobs", Trace.I (List.length jobs));
                ];
          let replies = dispatch jobs in
          let states =
            List.map2
              (fun st reply ->
                match reply with
                | Some r -> (
                    apply_delta a r.pr_delta;
                    match r.pr_out.o_norm with
                    | [ st' ] -> st'
                    | sts' -> join_states sts')
                | None -> run st)
              sts replies
          in
          { no_flow with o_norm = states }
      | _ -> { no_flow with o_norm = List.map run sts })

(** Polyvariant analysis of one call from one entry state: bind the
    parameters, analyze the callee body (with trace partitioning if the
    function is selected), merge the traces at the return point and
    write the return value into [dst].  Also the worker-side entry for
    [Pw_call] jobs. *)
and exec_call_one (a : Transfer.actx) ~(stack : string list)
    (binds : Transfer.binds) (st : Astate.t) (dst : var option)
    (fname : string) (fd : fundef) (args : arg list) : Astate.t =
  Metrics.incr c_calls_inlined;
  if !Trace.enabled then
    Trace.emit "call.inline"
      ~args:
        [ ("fn", Trace.S fname); ("depth", Trace.I (List.length stack)) ];
  let stack = fname :: stack in
  let partitioned =
    List.mem fname a.Transfer.cfg.Config.partitioned_functions
  in
  (* bind parameters *)
  let st, callee_binds =
    List.fold_left2
      (fun (st, cb) (p : param) (arg : arg) ->
        match (p, arg) with
        | Pval v, Aval e -> (Transfer.local_decl a st binds v (Some e), cb)
        | Pref v, Aref actual ->
            let resolved = Transfer.resolve_lval binds actual in
            (st, VarMap.add v resolved cb)
        | _ ->
            raise
              (Analysis_error (Fmt.str "argument mismatch calling %s" fname)))
      (st, VarMap.empty) fd.fd_params args
  in
  let exit_env, retv =
    exec_call_body a ~stack ~partitioned callee_binds st fname fd
  in
  match (dst, retv) with
  | Some d, retv when not (D.Itv.is_bot retv) ->
      let id = Transfer.var_cell a d in
      {
        exit_env with
        Astate.env =
          Env.set exit_env.Astate.env id
            (Avalue.of_itv ~use_clocked:a.Transfer.cfg.Config.use_clocked
               ~clock:exit_env.Astate.clock retv);
      }
  | Some d, _ ->
      (* no return value reached: leave dst at its type range *)
      Transfer.local_decl a exit_env binds d None
  | None, _ -> exit_env

(** Analyze the callee body from a fully bound entry state and merge the
    traces at the return point.  This is the memoized region: the entry
    state and the by-reference bindings determine the result completely
    (the destination write-back happens in the caller's scope, outside).
    On a cache hit the recorded side effects — alarms, loop invariants,
    useful octagon packs, join count — are replayed, so a hit is
    observationally identical to re-analysis. *)
and exec_call_body (a : Transfer.actx) ~(stack : string list)
    ~(partitioned : bool) (callee_binds : Transfer.binds) (st : Astate.t)
    (fname : string) (fd : fundef) : Astate.t * D.Itv.t =
  let compute () =
    let o =
      exec_block a ~part:partitioned ~stack callee_binds [ st ] fd.fd_body
    in
    (* the traces are merged at the return point of the function
       (Sect. 7.1.5) *)
    let exit_env = Astate.join (join_states o.o_norm) o.o_ret in
    let retv =
      match fd.fd_ret with
      | F.Ctypes.Tvoid -> D.Itv.Bot
      | F.Ctypes.Tscalar sc ->
          (* falling off the end without a return gives an undefined
             value: the whole type range *)
          if Astate.is_bot (join_states o.o_norm) then o.o_retv
          else
            join_itv o.o_retv
              (Avalue.top_of_scalar a.Transfer.prog.p_target sc)
      | _ -> D.Itv.Bot
    in
    (exit_env, retv)
  in
  match a.Transfer.session.Transfer.ses_memo with
  | Some m when m.cm_want fname -> (
      match
        m.cm_key ~fname ~checking:a.Transfer.alarms.Alarm.enabled st
          callee_binds
      with
      | None -> compute ()
      | Some key -> (
          match m.cm_find key with
          | Some s ->
              incr m.cm_hits;
              Metrics.incr c_cache_hits;
              if !Trace.enabled then
                Trace.emit "cache.hit" ~args:[ ("fn", Trace.S fname) ];
              Transfer.capture_replay a s.sm_delta;
              (s.sm_exit, s.sm_retv)
          | None ->
              incr m.cm_misses;
              Metrics.incr c_cache_misses;
              if !Trace.enabled then
                Trace.emit "cache.miss" ~args:[ ("fn", Trace.S fname) ];
              let cap = Transfer.capture_begin a in
              let exit_env, retv =
                try compute ()
                with e ->
                  Transfer.capture_abort a cap;
                  raise e
              in
              let delta = Transfer.capture_end a cap in
              let s = { sm_exit = exit_env; sm_retv = retv; sm_delta = delta } in
              m.cm_add key s;
              m.cm_fresh := (key, s) :: !(m.cm_fresh);
              (exit_env, retv)))
  | _ -> compute ()

(* ------------------------------------------------------------------ *)
(* Whole-program analysis                                              *)
(* ------------------------------------------------------------------ *)

(** Run the abstract interpreter from the program entry point, in
    checking mode (loops internally recompute their invariants in
    iteration mode first, Sect. 5.4). *)
let run (a : Transfer.actx) : Astate.t =
  match find_fun a.Transfer.prog a.Transfer.prog.p_main with
  | None ->
      raise
        (Analysis_error
           (Fmt.str "entry point %s not found" a.Transfer.prog.p_main))
  | Some fd ->
      let st0 = Transfer.initial_state a in
      a.Transfer.alarms.Alarm.enabled <- true;
      let o =
        exec_block a ~part:false
          ~stack:[ a.Transfer.prog.p_main ]
          VarMap.empty [ st0 ] fd.fd_body
      in
      Astate.join (join_states o.o_norm) o.o_ret

(* ------------------------------------------------------------------ *)
(* Worker-side job execution                                            *)
(* ------------------------------------------------------------------ *)

(** Execute one parallel job against (a forked copy of) the analysis
    context and package the outcome with the context side effects.  The
    collector, invariant table and useful-pack table are reset first so
    the delta contains exactly this job's contribution; the parent
    replays deltas in job order, which reproduces the sequential
    bookkeeping exactly. *)
let par_run_job (a : Transfer.actx) (job : par_job) : par_reply =
  (* workers are strictly sequential: no re-dispatch from a forked copy *)
  a.Transfer.session.Transfer.ses_par_hook <- None;
  (* the coordinator owns the trace file: detach the sink inherited over
     fork (without flushing — the parent already flushed before forking)
     and capture this job's events to ship them back in the delta *)
  Trace.in_worker ();
  let metrics0 = Metrics.snapshot () in
  let cap_mark = Trace.capture_begin () in
  a.Transfer.alarms.Alarm.enabled <- job.pj_checking;
  Alarm.reset a.Transfer.alarms;
  Hashtbl.reset a.Transfer.invariants;
  Hashtbl.reset a.Transfer.oct_useful;
  let joins0 = a.Transfer.join_count in
  let hits0, misses0 =
    match a.Transfer.session.Transfer.ses_memo with
    | Some m ->
        m.cm_fresh := [];
        (!(m.cm_hits), !(m.cm_misses))
    | None -> (0, 0)
  in
  let out =
    match job.pj_work with
    | Pw_block b ->
        exec_block a ~part:job.pj_part ~stack:job.pj_stack job.pj_binds
          [ job.pj_state ] b
    | Pw_call { dst; fname; args } -> (
        match find_fun a.Transfer.prog fname with
        | None ->
            raise (Analysis_error (Fmt.str "call to unknown function %s" fname))
        | Some fd ->
            let st' =
              exec_call_one a ~stack:job.pj_stack job.pj_binds job.pj_state
                dst fname fd args
            in
            { no_flow with o_norm = [ st' ] })
  in
  let invariants =
    Hashtbl.fold (fun id st acc -> (id, st) :: acc) a.Transfer.invariants []
    |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
  in
  let useful =
    Hashtbl.fold (fun id () acc -> id :: acc) a.Transfer.oct_useful []
    |> List.sort Int.compare
  in
  let summaries, hits, misses =
    match a.Transfer.session.Transfer.ses_memo with
    | Some m ->
        ( List.rev !(m.cm_fresh),
          !(m.cm_hits) - hits0,
          !(m.cm_misses) - misses0 )
    | None -> ([], 0, 0)
  in
  {
    pr_out = out;
    pr_delta =
      {
        pd_alarms = Alarm.to_list a.Transfer.alarms;
        pd_invariants = invariants;
        pd_joins = a.Transfer.join_count - joins0;
        pd_oct_useful = useful;
        pd_summaries = summaries;
        pd_cache_hits = hits;
        pd_cache_misses = misses;
        pd_metrics = Metrics.diff metrics0;
        pd_events = Trace.capture_end cap_mark;
      };
  }
