(** Outer interference fixpoint for multi-task programs (Miné's
    rely/guarantee iteration over Astrée's sequential analysis).

    Each round analyzes every task with the sequential analyzer, its
    reads of shared cells widened by the other tasks' interference
    (the rely), while collecting the task's own abstract writes to
    shared cells (the guarantee).  The per-task write maps are joined
    (then widened) across rounds; the fixpoint is reached when one
    more round adds nothing — at which point the last round's runs
    were analyzed under a rely that over-approximates every concurrent
    write, so their union of alarms soundly covers every sequentially
    consistent interleaving with statement-level atomicity.

    Termination: write maps live in a finite product of interval
    lattices (the shared cells); after [widen_delay] plain-join rounds
    every unstable bound is widened to +-oo, so the chain stabilizes.
    A round budget backstops even that: if [max_rounds] is exhausted,
    one final run with the everything-top rely (every shared cell at
    its full type range) is reported — strictly coarser than any
    fixpoint, hence still sound.

    Per-task runs go through [Scheduler.analyze] with the task's
    interference context, so they compose with the summary cache (the
    per-task config digests the rely: summaries never leak across
    interference environments) and dispatch to the parallel scheduler's
    workers as pure-data jobs with pure-data replies. *)

module C = Astree_core
module D = Astree_domains
module F = Astree_frontend
module P = Astree_parallel
module R = Astree_robust
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace

(* the round budget before the everything-top round, and the rounds of
   plain join before widening *)
let max_rounds = 8
let widen_delay = 2
let rounds_counter = Metrics.counter "conc.rounds"

type t = {
  c_result : C.Analysis.result;
  c_tasks : string list;
  c_shared : string list;
  c_rounds : int;
  c_stabilized : bool;
}

(* One per-task unit of work; pure data, marshals to pool workers. *)
type job = { j_task : string; j_rely : Interference.map }

(* The everything-top rely: every cell of every shared variable at its
   full type range.  The sound fallback when the round budget runs
   out, and the base of nothing — it needs no per-task indexing
   because it already dominates any guarantee. *)
let top_rely (cfg : C.Config.t) (p : F.Tast.program)
    (shared : F.Tast.var list) : Interference.map =
  List.concat_map
    (fun (v : F.Tast.var) ->
      List.map
        (fun (c : C.Cell.t) ->
          ( (v.F.Tast.v_id, c.C.Cell.path),
            C.Avalue.top_of_scalar p.F.Tast.p_target c.C.Cell.cty ))
        (C.Cell.cells_of_var ~structs:p.F.Tast.p_structs
           ~expand_array_max:cfg.C.Config.expand_array_max v))
    shared
  |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)

(* What a per-task run returns: its final state, its stats and the
   delta of its whole run (alarms, invariants, useful packs and its
   guarantee); pure data, marshals back from pool workers. *)
type run = C.Astate.t * C.Analysis.stats * C.Transfer.delta

(* Run one task under its rely: a sequential analysis of [p] re-rooted
   at the task, whose session carries the interference context.  The
   config digests the rely, so summary-cache keys self-identify the
   interference environment; cell ids depend only on the program, so
   states and invariants align across tasks and with the combined
   context, which [finish] absorbs the task's delta into. *)
let run_job ~(cfg : C.Config.t) (p : F.Tast.program)
    (shared : F.Tast.var list) (j : job) : run =
  let cfg =
    { cfg with C.Config.conc_rely_digest = Interference.digest j.j_rely }
  in
  let it =
    {
      C.Transfer.itf_rely = Interference.to_table j.j_rely;
      itf_shared =
        Hashtbl.of_seq
          (List.to_seq
             (List.map (fun (v : F.Tast.var) -> (v.F.Tast.v_id, ())) shared));
    }
  in
  let r =
    P.Scheduler.analyze ~itf:it ~cfg { p with F.Tast.p_main = j.j_task }
  in
  (r.C.Analysis.r_final, r.r_stats, C.Transfer.run_delta r.r_actx)

(* A run's guarantee as an interference map: its bottom writes
   dropped. *)
let guarantee ((_, _, d) : run) : Interference.map =
  List.filter (fun (_, v) -> not (D.Itv.is_bot v)) d.C.Transfer.d_guarantee

let fixpoint (cfg : C.Config.t) ~(tasks : string list)
    (p : F.Tast.program) : t =
  let t0 = Unix.gettimeofday () in
  let tm = Taskmodel.build p tasks in
  let shared = tm.Taskmodel.tm_shared in
  let shared_names = List.map (fun (v : F.Tast.var) -> v.F.Tast.v_name) shared in
  Metrics.set_gauge "conc.tasks" (List.length tasks);
  Metrics.set_gauge "conc.interference_vars" (List.length shared_names);
  (* shared variables leave the relational packs in every run, the
     combined context included, so states stay comparable *)
  let cfg = { cfg with C.Config.conc_shared = shared_names } in
  let workers =
    P.Scheduler.workers
      ~jobs:(min cfg.C.Config.jobs (List.length tasks))
      (run_job ~cfg p shared)
  in
  let round_of ~round (writes : Interference.map list) : run list =
    Metrics.incr rounds_counter;
    if !Trace.enabled then
      Trace.span_begin "conc.round" ~args:[ ("round", Trace.I round) ];
    let jobs =
      List.mapi
        (fun i task ->
          (* rely of task i: join of every other task's guarantee *)
          let rely =
            List.fold_left Interference.join Interference.empty
              (List.filteri (fun k _ -> k <> i) writes)
          in
          { j_task = task; j_rely = rely })
        tasks
    in
    let rs = P.Scheduler.map workers jobs in
    if !Trace.enabled then
      Trace.span_end "conc.round"
        ~args:
          [
            ( "interference_cells",
              Trace.I
                (List.fold_left
                   (fun n r -> n + Interference.cardinal (guarantee r))
                   0 rs) );
          ];
    rs
  in
  let finish (runs : run list) ~(rounds : int) ~(stabilized : bool) : t =
    let final = P.Merge.join_states (List.map (fun (st, _, _) -> st) runs) in
    (* combined context: same cell numbering as every per-task run, with
       every run's delta absorbed in job order, invariants joined; its
       collector keeps the first alarm per kind and location *)
    let actx = C.Transfer.make_actx cfg p in
    List.iter (fun (_, _, d) -> C.Transfer.absorb ~join:true actx d) runs;
    (* the program's measures, once: every run numbers the same cells;
       only the cache counters and the degradation record combine *)
    let stats =
      {
        (C.Analysis.context_stats actx p) with
        C.Analysis.s_time = Unix.gettimeofday () -. t0;
        s_cache =
          List.fold_left
            (fun acc (s : C.Analysis.stats) ->
              match (acc, s.C.Analysis.s_cache) with
              | None, c | c, None -> c
              | Some x, Some y ->
                  Some
                    {
                      C.Analysis.c_hits =
                        x.C.Analysis.c_hits + y.C.Analysis.c_hits;
                      c_misses = x.c_misses + y.c_misses;
                      c_entries = x.c_entries + y.c_entries;
                      c_loaded = x.c_loaded + y.c_loaded;
                      c_load_time = x.c_load_time +. y.c_load_time;
                      c_save_time = x.c_save_time +. y.c_save_time;
                    })
            None
            (List.map (fun (_, s, _) -> s) runs);
        s_degraded =
          List.find_map (fun (_, s, _) -> s.C.Analysis.s_degraded) runs;
      }
    in
    let c_result =
      {
        C.Analysis.r_alarms = C.Alarm.to_list actx.C.Transfer.alarms;
        r_final = final;
        r_actx = actx;
        r_stats = stats;
      }
    in
    (* at any -j: pooled runs set gauges in workers, whose deltas drop them *)
    C.Analysis.set_gauges c_result;
    {
      c_result;
      c_tasks = tasks;
      c_shared = shared_names;
      c_rounds = rounds;
      c_stabilized = stabilized;
    }
  in
  (* round 1 under the empty rely, then iterate *)
  let rec iterate ~round (writes : Interference.map list) : t =
    let results = round_of ~round writes in
    let writes' = List.map guarantee results in
    if List.for_all2 Interference.subset writes' writes then
      (* nothing new: these runs were analyzed under a rely that
         over-approximates every concurrent write — report them *)
      finish results ~rounds:round ~stabilized:true
    else if round >= max_rounds then begin
      (* budget exhausted: one last, everything-top round *)
      let top = top_rely cfg p shared in
      let results =
        round_of ~round:(round + 1) (List.map (fun _ -> top) tasks)
      in
      finish results ~rounds:(round + 1) ~stabilized:false
    end
    else
      let writes'' =
        if round <= widen_delay then List.map2 Interference.join writes writes'
        else List.map2 Interference.widen writes writes'
      in
      iterate ~round:(round + 1) writes''
  in
  Fun.protect
    ~finally:(fun () -> P.Scheduler.shutdown workers)
    (fun () ->
      match shared with
      | [] ->
          (* no interference possible: one round under the empty rely
             is already the fixpoint *)
          let results = round_of ~round:1 (List.map (fun _ -> []) tasks) in
          finish results ~rounds:1 ~stabilized:true
      | _ -> iterate ~round:1 (List.map (fun _ -> Interference.empty) tasks))

(** The fixpoint under the resource budget of [cfg], like a single-task
    analysis ([Degrade.analyze]): every per-task run polls the budget (and
    the pool polls it while it waits), a timeout or memory trip restarts
    the whole fixpoint one degradation step down and marks the result,
    and an interrupt escapes as [Budget.Tripped Interrupted] — a
    multi-task run has no partial result. *)
let analyze ?(cfg = C.Config.default) ~(tasks : string list)
    (p : F.Tast.program) : t =
  R.Degrade.govern cfg p
    ~attempt:(fun acfg -> fixpoint acfg ~tasks p)
    ~mark:(fun t dg -> { t with c_result = R.Degrade.mark t.c_result dg })
    ~interrupted:(fun _ -> raise (R.Budget.Tripped R.Budget.Interrupted))
