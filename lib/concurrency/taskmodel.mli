(** Task model of a multi-task program: entry points, per-task global
    access sets, and the derived shared-variable set. *)

module F = Astree_frontend

type t = {
  tm_tasks : string list;  (** validated task entry points, in given order *)
  tm_shared : F.Tast.var list;
      (** non-volatile globals written by one task and accessed by
          another, sorted by name — the interference-carrying set *)
  tm_reads : (string * F.Tast.VarSet.t) list;
      (** per task: non-volatile globals its call graph may read *)
  tm_writes : (string * F.Tast.VarSet.t) list;
      (** per task: non-volatile globals its call graph may write *)
}

(** Check that every task names a distinct, parameterless function.
    @raise Astree_core.Iterator.Analysis_error otherwise, or when fewer
    than two tasks are given ({!Astree_core.Analysis.diagnosis} names
    it). *)
val validate : F.Tast.program -> string list -> unit

(** Function names reachable from [entry] through direct calls
    (including [entry] itself), in no particular order, resolving names
    in a program's {!F.Tast.fun_table}. *)
val reachable :
  (string, F.Tast.fundef) Hashtbl.t -> string -> string list

(** Build the task model.  Runs {!validate} first. *)
val build : F.Tast.program -> string list -> t
