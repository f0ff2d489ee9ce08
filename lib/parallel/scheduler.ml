(** The parallel scheduler: whole-program batch jobs, and the one job
    path and fault policy that they and the per-task runs of
    [Astree_conc.Fixpoint] share.  [-j n] can lose speed, never results,
    and never silently. *)

module C = Astree_core
module F = Astree_frontend
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace

(** Default worker count: the machine's available cores. *)
let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* seconds before a worker is presumed hung, killed and its job retried *)
let job_timeout = 3600.
let recomputed = Metrics.counter "par.recomputed"

(** Alias of [Analysis.analyze], kept for existing callers. *)
let analyze ?session ?cfg p = C.Analysis.analyze ?session ?cfg p

type ('a, 'b) workers = {
  w_run : 'a -> 'b;  (** the job function, also the in-process fallback *)
  w_pool : ('a, 'b * Metrics.snapshot) Pool.t option;
}

(* A worker detaches its inherited trace sink and ships each job's
   registry delta with its reply, so pooled runs count like -j 1. *)
let workers ~(jobs : int) (f : 'a -> 'b) : ('a, 'b) workers =
  let worker job =
    Trace.in_worker ();
    let m0 = Metrics.snapshot () in
    let r = f job in
    (r, Metrics.diff m0)
  in
  {
    w_run = f;
    w_pool =
      (if jobs <= 1 then None
       else begin
         Trace.flush ();
         Some (Pool.create ~jobs worker)
       end);
  }

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
          | Ok (v, delta) ->
              Metrics.absorb delta;
              v
          | Error _ ->
              Metrics.incr recomputed;
              w.w_run j)
        items first

let shutdown (w : ('a, 'b) workers) : unit = Option.iter Pool.shutdown w.w_pool

(* ------------------------------------------------------------------ *)
(* Whole-program batch jobs                                            *)
(* ------------------------------------------------------------------ *)

type batch_job = {
  bj_label : string;
  bj_cfg : C.Config.t;
  bj_program : F.Tast.program;
}

let batch_job ?(label = "") ?(cfg = C.Config.default) (p : F.Tast.program) :
    batch_job =
  { bj_label = label; bj_cfg = cfg; bj_program = p }

(** Run one batch job sequentially, cells pre-filled so that its reply
    attaches to the parent's pre-filled context of the program. *)
let run_batch_job (bj : batch_job) : C.Analysis.result =
  C.Analysis.analyze ~prefill:true ~cfg:bj.bj_cfg bj.bj_program

(** Run a batch of whole-program analyses on [jobs] workers, results in
    job order. *)
let analyze_batch ?(jobs = default_jobs ()) (items : batch_job list) :
    (string * C.Analysis.result) list =
  let jobs = min jobs (List.length items) in
  if jobs <= 1 then List.map (fun bj -> (bj.bj_label, run_batch_job bj)) items
  else begin
    (* workers inherit [items]: a job is its index, not its program *)
    let arr = Array.of_list items in
    let w =
      workers ~jobs (fun i -> C.Analysis.Reply.detach (run_batch_job arr.(i)))
    in
    let replies =
      Fun.protect
        ~finally:(fun () -> shutdown w)
        (fun () -> map w (List.init (Array.length arr) Fun.id))
    in
    List.map2
      (fun bj rp ->
        let actx = C.Transfer.make_actx bj.bj_cfg bj.bj_program in
        C.Transfer.prefill_cells actx;
        C.Analysis.Reply.attach actx rp;
        ( bj.bj_label,
          {
            C.Analysis.r_alarms = rp.C.Analysis.Reply.rp_alarms;
            r_final = rp.rp_final;
            r_actx = actx;
            r_stats = rp.rp_stats;
          } ))
      items replies
  end
