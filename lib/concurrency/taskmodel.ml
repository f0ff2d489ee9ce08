(** Task model of a multi-task program (Sect. 2: "synchronous" control
    loops running concurrently on shared memory).

    A task is a parameterless entry-point function; the tasks of a
    program share its global variables.  The model computes, per task,
    the sets of non-volatile globals it may read and write anywhere in
    its call graph, and derives from them the [shared] variables: those
    written by one task and accessed (read or written) by another.
    Only shared variables are subject to interference — everything else
    keeps the precise single-task semantics. *)

module F = Astree_frontend

type t = {
  tm_tasks : string list;          (* validated, in given order *)
  tm_shared : F.Tast.var list;     (* sorted by name *)
  tm_reads : (string * F.Tast.VarSet.t) list;
  tm_writes : (string * F.Tast.VarSet.t) list;
}

let is_global_tbl (p : F.Tast.program) : (int, unit) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ((v : F.Tast.var), _) ->
      if not v.F.Tast.v_volatile then Hashtbl.replace tbl v.F.Tast.v_id ())
    p.F.Tast.p_globals;
  tbl

let validate (p : F.Tast.program) (tasks : string list) : unit =
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Astree_core.Iterator.Analysis_error m)) fmt
  in
  (match tasks with
  | [] | [ _ ] -> fail "a multi-task program needs at least two tasks"
  | _ -> ());
  let seen = Hashtbl.create 8 in
  List.iter
    (fun t ->
      if Hashtbl.mem seen t then fail "duplicate task %S" t;
      Hashtbl.replace seen t ();
      match F.Tast.find_fun p t with
      | None -> fail "unknown task %S" t
      | Some fd ->
          if fd.F.Tast.fd_params <> [] then fail "task %S takes parameters" t)
    tasks

let reachable = F.Footprint.reachable

let task_accesses (funs : (string, F.Tast.fundef) Hashtbl.t)
    (globals : (int, unit) Hashtbl.t) (entry : string) :
    F.Tast.VarSet.t * F.Tast.VarSet.t =
  List.fold_left
    (fun (r, w) name ->
      match Hashtbl.find_opt funs name with
      | None -> (r, w)
      | Some fd ->
          let fr, fw =
            F.Footprint.of_fundef
              ~keep:(fun v -> Hashtbl.mem globals v.F.Tast.v_id)
              fd
          in
          (F.Tast.VarSet.union fr r, F.Tast.VarSet.union fw w))
    (F.Tast.VarSet.empty, F.Tast.VarSet.empty)
    (reachable funs entry)

let build (p : F.Tast.program) (tasks : string list) : t =
  validate p tasks;
  let globals = is_global_tbl p in
  let funs = F.Tast.fun_table p in
  let acc = List.map (fun t -> (t, task_accesses funs globals t)) tasks in
  let reads = List.map (fun (t, (r, _)) -> (t, r)) acc in
  let writes = List.map (fun (t, (_, w)) -> (t, w)) acc in
  (* shared: written by some task, read or written by a different one *)
  let shared =
    List.fold_left
      (fun s (t, w) ->
        let others =
          List.fold_left
            (fun o (t', (r', w')) ->
              if String.equal t t' then o
              else F.Tast.VarSet.union (F.Tast.VarSet.union r' w') o)
            F.Tast.VarSet.empty acc
        in
        F.Tast.VarSet.union (F.Tast.VarSet.inter w others) s)
      F.Tast.VarSet.empty writes
  in
  let shared =
    List.sort
      (fun (a : F.Tast.var) b -> String.compare a.F.Tast.v_name b.F.Tast.v_name)
      (F.Tast.VarSet.elements shared)
  in
  { tm_tasks = tasks; tm_shared = shared; tm_reads = reads; tm_writes = writes }
