(** Parallel scheduler: intra-program disjunct jobs (axis a) and
    whole-program batch jobs (axis b), with deterministic merge and a
    retry-once-then-sequential fault policy. *)

module C = Astree_core
module F = Astree_frontend

(** Worker count matching the machine's available cores. *)
val default_jobs : unit -> int

(** Per-job wall-clock budgets (seconds) before a worker is presumed
    hung and its job retried. *)
val intra_job_timeout : float ref

val batch_job_timeout : float ref

(** Analyze with [cfg.jobs] worker processes; identical results to the
    sequential analysis.  [cfg.jobs <= 1] runs sequentially.
    [?session] threads an existing analysis session through (the
    dispatch hook is installed in it for the duration of the run). *)
val analyze :
  ?session:C.Transfer.session ->
  ?cfg:C.Config.t ->
  F.Tast.program ->
  C.Analysis.result

(** Install the driver: [Analysis.analyze] with [cfg.jobs > 1] then
    routes through this module. *)
val register : unit -> unit

type batch_source =
  | Bs_program of F.Tast.program  (** already compiled *)
  | Bs_sources of (string * string) list  (** (filename, contents) pairs *)

type batch_job = {
  bj_label : string;
  bj_main : string;
  bj_cfg : C.Config.t;
  bj_source : batch_source;
}

val batch_job :
  ?label:string -> ?main:string -> ?cfg:C.Config.t -> batch_source -> batch_job

(** Run one batch job sequentially in-process. *)
val run_batch_job : batch_job -> C.Analysis.result

(** Run whole-program analyses on a worker pool; returns
    (label, result) pairs in job order.  Failed jobs are retried once,
    then recomputed in-process. *)
val analyze_batch :
  ?jobs:int -> batch_job list -> (string * C.Analysis.result) list
