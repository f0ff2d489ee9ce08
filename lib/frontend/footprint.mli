(** Read/write footprints of the typed IR: which variables a function
    body may read (expressions, conditions, subscripts) and write
    (assignments, local declarations, call destinations, its own
    parameters), over one body or over everything reachable from it by
    direct calls.  The concurrency task model restricts them to
    globals; the summary cache uses all of them to frame a call. *)

(** Function names reachable from [entry] through direct calls
    (including [entry] itself), in no particular order, resolving names
    in a program's {!Tast.fun_table}. *)
val reachable : (string, Tast.fundef) Hashtbl.t -> string -> string list

(** [(reads, writes)] of one body, restricted to the variables [keep]
    accepts.  By-reference arguments are both read and written: the
    callee may do either through the reference. *)
val of_fundef :
  keep:(Tast.var -> bool) -> Tast.fundef -> Tast.VarSet.t * Tast.VarSet.t
