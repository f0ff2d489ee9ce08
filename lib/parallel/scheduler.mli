(** Parallel scheduler: whole-program batch jobs on a worker pool, with
    deterministic merge and a retry-once-then-sequential fault policy. *)

module C = Astree_core
module F = Astree_frontend

(** Worker count matching the machine's available cores. *)
val default_jobs : unit -> int

(** Per-job wall-clock budget (seconds) before a worker is presumed
    hung and its job retried. *)
val batch_job_timeout : float ref

(** Alias of {!Astree_core.Analysis.analyze}: one program is analyzed
    sequentially at every [cfg.jobs].  Kept for existing callers (the
    layer benchmark uses it); new code should call [Analysis.analyze]. *)
val analyze :
  ?session:C.Transfer.session ->
  ?cfg:C.Config.t ->
  F.Tast.program ->
  C.Analysis.result

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
