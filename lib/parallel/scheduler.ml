(** The parallel scheduler: whole-program batch jobs.

    Whole-program analyses (a family sweep, a parameter-refinement
    ladder) are embarrassingly parallel: each worker runs one full
    analysis and marshals the result back.  A single analysis runs
    sequentially, as in the paper; multi-task programs parallelize over
    their tasks in [Astree_conc.Fixpoint], on the same [Pool].

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

(** Per-job wall-clock budget (seconds) before a worker is presumed
    hung, killed and its job retried. *)
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

(** Alias of [Analysis.analyze], kept for existing callers. *)
let analyze = C.Analysis.analyze

(* ------------------------------------------------------------------ *)
(* Whole-program batch jobs                                            *)
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

(* Worker-side wrapper: detach any inherited trace sink and ship the
   job's registry delta back with the result, so profile probes and
   iterator counters cover batch runs too. *)
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
