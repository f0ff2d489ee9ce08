(** Read/write footprints of the typed IR (see the interface). *)

open Tast

let reachable (funs : (string, fundef) Hashtbl.t) (entry : string) :
    string list =
  let seen = Hashtbl.create 16 in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      match Hashtbl.find_opt funs name with
      | None -> ()
      | Some fd ->
          iter_stmts
            (fun s ->
              match s.sdesc with Scall (_, callee, _) -> visit callee | _ -> ())
            fd.fd_body
    end
  in
  visit entry;
  Hashtbl.fold (fun name () acc -> name :: acc) seen []

let of_fundef ~(keep : var -> bool) (fd : fundef) : VarSet.t * VarSet.t =
  let reads = ref VarSet.empty and writes = ref VarSet.empty in
  let add_set acc s = acc := VarSet.union (VarSet.filter keep s) !acc in
  let write v = if keep v then writes := VarSet.add v !writes in
  let read_expr e = add_set reads (expr_vars e VarSet.empty) in
  let read_lval lv = add_set reads (lval_vars lv VarSet.empty) in
  let write_lval lv =
    write (lval_root lv);
    (* subscript expressions inside the written lvalue are reads *)
    read_lval lv
  in
  List.iter (function Pval v | Pref v -> write v) fd.fd_params;
  iter_stmts
    (fun s ->
      match s.sdesc with
      | Sassign (lv, e) ->
          write_lval lv;
          read_expr e
      | Scall (dst, _, args) ->
          Option.iter write dst;
          List.iter
            (function
              | Aval e -> read_expr e
              | Aref lv -> write_lval lv)
            args
      | Sif (c, _, _) | Swhile (_, c, _) -> read_expr c
      | Sreturn (Some e) | Sassert e | Sassume e -> read_expr e
      | Slocal (v, init) ->
          write v;
          Option.iter read_expr init
      | Sreturn None | Sbreak | Scontinue | Swait | Sskip -> ())
    fd.fd_body;
  (!reads, !writes)
