(** Outer interference fixpoint for multi-task programs: iterate the
    sequential analysis of every task under the other tasks' collected
    shared-cell writes (the rely) until the write maps stabilize, then
    report the union of the stable round's alarms. *)

module C = Astree_core
module F = Astree_frontend

type t = {
  c_result : C.Analysis.result;
      (** combined: merged alarms, joined final state, combined context
          with merged invariants; statistics with the program's measures
          (counted once) and the runs' summed cache counters *)
  c_tasks : string list;
  c_shared : string list;  (** shared-variable names, sorted *)
  c_rounds : int;          (** analysis rounds run (each = all tasks) *)
  c_stabilized : bool;
      (** false only when the round budget forced the everything-top
          fallback round (still sound, maximally coarse) *)
}

(** Analyze [p] as a multi-task program with the given entry points.
    [cfg.jobs > 1] dispatches per-task runs to a process pool; results
    and gauges are identical to the sequential run's.  Each per-task run
    is a {!Astree_parallel.Scheduler.analyze} under the task's
    interference, so the summary cache, when enabled, is attached per
    task run with the rely digest folded into its keys.  Under a budget
    ([cfg.timeout], [cfg.max_mem_mb], signal handlers) it is governed
    like a single-task analysis: a timeout or memory trip reruns the
    fixpoint one {!Astree_robust.Degrade} step down and sets
    [stats.s_degraded].
    @raise Astree_core.Iterator.Analysis_error on fewer than two
    tasks, unknown or duplicate task names, or tasks taking parameters.
    @raise Astree_robust.Budget.Tripped [Interrupted] on an interrupt. *)
val analyze : ?cfg:C.Config.t -> tasks:string list -> F.Tast.program -> t
