(** The parallel scheduler: splits an analysis into pool jobs along two
    axes and merges the replies deterministically.

    {b Axis (a) — intra-program.}  The iterator already analyzes some
    program fragments from several independent entry states and joins
    the outcomes: the two branches of a dispatch conditional, and the
    trace-partition disjuncts flowing into a call (Sect. 7.1.5).  The
    scheduler ships each disjunct to a worker ([Iterator.par_job]) and
    the parent replays the workers' deltas in job order, performing the
    very joins the sequential iterator would — results are identical to
    [-j 1] by construction.

    {b Axis (b) — batch.}  Whole-program analyses (a family sweep, a
    parameter-refinement ladder) are embarrassingly parallel: each
    worker runs one full analysis and marshals the result back.

    {b Fault policy.}  A crashed or timed-out worker is respawned and
    its job retried once on the fresh worker; if that also fails, the
    job is recomputed in-process — [-j n] can lose speed, never
    soundness or results. *)

module C = Astree_core
module F = Astree_frontend
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace

(** Default worker count: the machine's available cores. *)
let default_jobs () = max 1 (Domain.recommended_domain_count ())

(** Per-job wall-clock budgets (seconds) before a worker is presumed
    hung, killed and its job retried. *)
let intra_job_timeout = ref 600.

let batch_job_timeout = ref 3600.

(** Map with the retry-once policy: every [Error] slot of the first
    round is resubmitted once (to a respawned worker); persistent
    failures come back as [None] and the caller recomputes in-process. *)
let map_retry (pool : ('a, 'b) Pool.t) ~(timeout : float) (jobs : 'a list) :
    'b option list =
  let first = Pool.map ~timeout pool jobs in
  let failed =
    List.map2 (fun j r -> (j, r)) jobs first
    |> List.mapi (fun i (j, r) -> (i, j, r))
    |> List.filter_map (fun (i, j, r) ->
           match r with Error _ -> Some (i, j) | Ok _ -> None)
  in
  if failed = [] then
    List.map (function Ok v -> Some v | Error _ -> None) first
  else begin
    let retry = Pool.map ~timeout pool (List.map snd failed) in
    let patched = Hashtbl.create 8 in
    List.iter2 (fun (i, _) r -> Hashtbl.replace patched i r) failed retry;
    List.mapi
      (fun i r ->
        let r =
          match Hashtbl.find_opt patched i with Some r' -> r' | None -> r
        in
        match r with Ok v -> Some v | Error _ -> None)
      first
  end

(* ------------------------------------------------------------------ *)
(* Axis (a): intra-program disjunct jobs                               *)
(* ------------------------------------------------------------------ *)

(** Analyze [p] with [cfg.jobs] worker processes.  The context is built
    and every cell interned {e before} forking, so parent and workers
    share one frozen cell numbering and marshalled states mean the same
    thing on both sides. *)
let analyze ?session ?(cfg = C.Config.default) (p : F.Tast.program) :
    C.Analysis.result =
  let ses =
    match session with Some s -> s | None -> C.Transfer.new_session ()
  in
  let jobs = cfg.C.Config.jobs in
  if jobs <= 1 then
    C.Analysis.analyze ~session:ses ~cfg:{ cfg with C.Config.jobs = 1 } p
  else begin
    let actx = C.Transfer.make_actx ~session:ses cfg p in
    C.Transfer.prefill_cells actx;
    (* drain buffered trace events to the sink before forking: workers
       would otherwise inherit (and possibly re-write) the buffered
       bytes.  Workers additionally detach the sink in [par_run_job]. *)
    Trace.flush ();
    Pool.with_pool ~jobs
      (fun job -> C.Iterator.par_run_job actx job)
      (fun pool ->
        ses.C.Transfer.ses_par_hook <-
          Some (fun pjobs -> map_retry pool ~timeout:!intra_job_timeout pjobs);
        Fun.protect
          ~finally:(fun () -> ses.C.Transfer.ses_par_hook <- None)
          (fun () -> C.Analysis.analyze_prepared actx p))
  end

(** Install the parallel driver: after this, [Analysis.analyze] with
    [cfg.jobs > 1] routes through [analyze] above. *)
let register () =
  C.Analysis.parallel_driver :=
    Some (fun ses cfg p -> analyze ~session:ses ~cfg p)

(* ------------------------------------------------------------------ *)
(* Axis (b): whole-program batch jobs                                  *)
(* ------------------------------------------------------------------ *)

type batch_source =
  | Bs_program of F.Tast.program  (** already compiled *)
  | Bs_sources of (string * string) list  (** (filename, contents) pairs *)

type batch_job = {
  bj_label : string;
  bj_main : string;
  bj_cfg : C.Config.t;
  bj_source : batch_source;
}

let batch_job ?(label = "") ?(main = "main") ?(cfg = C.Config.default)
    (source : batch_source) : batch_job =
  { bj_label = label; bj_main = main; bj_cfg = cfg; bj_source = source }

(** Run one batch job sequentially (workers and the fallback path). *)
let run_batch_job (bj : batch_job) : C.Analysis.result =
  let cfg = { bj.bj_cfg with C.Config.jobs = 1 } in
  match bj.bj_source with
  | Bs_program p -> C.Analysis.analyze ~cfg p
  | Bs_sources srcs -> C.Analysis.analyze_sources ~cfg ~main:bj.bj_main srcs

(* Worker-side wrapper for the batch axis: detach any inherited trace
   sink and ship the job's registry delta back with the result, so
   profile probes and iterator counters cover batch runs too. *)
let run_batch_job_delta (bj : batch_job) :
    C.Analysis.result * Metrics.snapshot =
  Trace.in_worker ();
  let m0 = Metrics.snapshot () in
  let r = run_batch_job bj in
  (r, Metrics.diff m0)

(** Run a batch of whole-program analyses on [jobs] workers, results in
    job order.  Failed jobs are retried once, then recomputed
    in-process.  Worker registry deltas (metrics, profile probes) are
    absorbed in item order, so batch reports merge deterministically. *)
let analyze_batch ?(jobs = default_jobs ()) (items : batch_job list) :
    (string * C.Analysis.result) list =
  if jobs <= 1 || List.compare_length_with items 2 < 0 then
    List.map (fun bj -> (bj.bj_label, run_batch_job bj)) items
  else begin
    Trace.flush ();
    Pool.with_pool
      ~jobs:(min jobs (List.length items))
      run_batch_job_delta
      (fun pool ->
        let rs = map_retry pool ~timeout:!batch_job_timeout items in
        List.map2
          (fun bj r ->
            ( bj.bj_label,
              match r with
              | Some (r, delta) ->
                  Metrics.absorb delta;
                  r
              | None -> run_batch_job bj ))
          items rs)
  end
