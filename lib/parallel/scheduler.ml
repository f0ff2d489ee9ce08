(** The parallel scheduler: the entry of every analysis, whose main loop
    may run as two processes ({!Split}), and the one job path and fault
    policy of the per-task runs of [Astree_conc.Fixpoint].  [-j n] can
    lose speed, never results, and never silently. *)

module C = Astree_core
module F = Astree_frontend
module Metrics = Astree_obs.Metrics
module Observed = Astree_obs.Observed

(** Default worker count: the machine's available cores. *)
let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* seconds before a worker is presumed hung, killed and its job retried *)
let job_timeout = 3600.
let recomputed = Metrics.counter "par.recomputed"

(* Every hook follows from [cfg]; a per-task run ([itf]) is governed by
   its fixpoint and does not split. *)
let analyze ?itf ?(cfg = C.Config.default) p =
  if C.Config.cache_enabled cfg then Astree_incremental.Summary.register ();
  let tick = Astree_robust.Degrade.tick cfg in
  match itf with
  | Some itf ->
      C.Analysis.analyze
        ~session:(C.Transfer.new_session ~itf ?tick ())
        ~cfg p
  | None ->
      Astree_robust.Degrade.analyze
        ~session:(C.Transfer.new_session ~split:Split.split ?tick ())
        ~cfg p

type ('a, 'b) workers = {
  w_run : 'a -> 'b;  (** the job function, also the in-process fallback *)
  w_pool : ('a, 'b Observed.t) Pool.t option;
}

let workers ~(jobs : int) (f : 'a -> 'b) : ('a, 'b) workers =
  {
    w_run = f;
    w_pool =
      (if jobs <= 1 then None else Some (Pool.create ~jobs (Observed.job f)));
  }

(* Each job's observations are absorbed, or the job rerun in-process, in
   job order: a pooled run counts and traces exactly like -j 1. *)
let map (w : ('a, 'b) workers) (items : 'a list) : 'b list =
  match w.w_pool with
  | None -> List.map w.w_run items
  | Some pool ->
      let first = Pool.map ~timeout:job_timeout pool items in
      let failed =
        List.filter_map
          (fun (j, r) -> if Result.is_error r then Some j else None)
          (List.combine items first)
      in
      let retried = ref (Pool.map ~timeout:job_timeout pool failed) in
      List.map2
        (fun j r ->
          let r =
            match (r, !retried) with
            | Error _, r' :: rest ->
                retried := rest;
                r'
            | _ -> r
          in
          match r with
          | Ok o -> Observed.absorb o
          | Error _ ->
              Metrics.incr recomputed;
              w.w_run j)
        items first

let shutdown (w : ('a, 'b) workers) : unit = Option.iter Pool.shutdown w.w_pool
