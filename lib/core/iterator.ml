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
    context's bookkeeping.  Pure data — marshalled into the on-disk
    store. *)
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

(* ------------------------------------------------------------------ *)
(* Statement tick                                                       *)
(* ------------------------------------------------------------------ *)

(* The resource governor (Astree_robust.Budget) needs a periodic check
   point inside the fixpoint engine without the core depending on it, so
   — like the memo hook — it installs a session hook.  The
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
             entry states and merged by join *)
          let run_both st =
            let st_t = Transfer.guard a st binds c true in
            let st_f = Transfer.guard a st binds c false in
            let ot = exec_block a ~part ~stack binds [ st_t ] tb in
            let of_ = exec_block a ~part ~stack binds [ st_f ] fb in
            (ot, of_)
          in
          let pairs = List.map run_both sts in
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
      | Scall (dst, fname, args) -> exec_call a ~stack binds sts dst fname args)

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
    (binds : Transfer.binds) (sts : Astate.t list) (dst : var option)
    (fname : string) (args : arg list) : outcome =
  match find_fun a.Transfer.prog fname with
  | None ->
      raise (Analysis_error (Fmt.str "call to unknown function %s" fname))
  | Some fd ->
      if List.mem fname stack then
        raise
          (Analysis_error
             (Fmt.str "recursion detected through %s (not in the subset)"
                fname));
      let run st = exec_call_one a ~stack binds st dst fname fd args in
      { no_flow with o_norm = List.map run (live sts) }

(** Polyvariant analysis of one call from one entry state: bind the
    parameters, analyze the callee body (with trace partitioning if the
    function is selected), merge the traces at the return point and
    write the return value into [dst]. *)
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
