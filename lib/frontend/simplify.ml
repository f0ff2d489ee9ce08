(** Post-elaboration simplifications (Sect. 5.1):

    - evaluation of syntactically constant sub-expressions, when the
      evaluation provably incurs no run-time error (so that alarms are
      preserved);
    - replacement of reads of constant arrays at constant subscripts by
      their value ("the analyzed programs use large arrays representing
      hardware features with constant subscripts; those arrays are thus
      optimized away");
    - deletion of unused global variables. *)

open Tast

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

(* Fold only when the result is exactly representable in the expression's
   type and no alarm could be raised; otherwise keep the node so the
   analysis reports the alarm. *)

let in_int_range tgt s n =
  match s with
  | Ctypes.Tint (r, sg) ->
      let lo, hi = Ctypes.range_of_int_type tgt r sg in
      n >= lo && n <= hi
  | _ -> false

let rec fold_expr tgt (e : expr) : expr =
  match e.edesc with
  | Eint _ | Efloat _ -> e
  | Elval lv -> { e with edesc = Elval (fold_lval tgt lv) }
  | Ecast (s, a) -> (
      let a = fold_expr tgt a in
      match (a.edesc, s) with
      | Eint n, Ctypes.Tint _ when in_int_range tgt s n -> { e with edesc = Eint n }
      | Eint n, Ctypes.Tfloat Ctypes.Fdouble when abs n < 1 lsl 52 ->
          { e with edesc = Efloat (float_of_int n) }
      | Eint n, Ctypes.Tfloat Ctypes.Fsingle when abs n < 1 lsl 23 ->
          { e with edesc = Efloat (float_of_int n) }
      | Efloat f, Ctypes.Tfloat Ctypes.Fdouble -> { e with edesc = Efloat f }
      | Efloat f, Ctypes.Tfloat Ctypes.Fsingle ->
          let f32 = Int32.float_of_bits (Int32.bits_of_float f) in
          if Float.is_nan f32 || Float.is_integer (f32 -. f32) (* finite *)
          then { e with edesc = Efloat f32 }
          else { e with edesc = Ecast (s, a) }
      | _ -> { e with edesc = Ecast (s, a) })
  | Eunop (op, a) -> (
      let a = fold_expr tgt a in
      match (op, a.edesc) with
      | Neg, Eint n when in_int_range tgt e.ety (-n) -> { e with edesc = Eint (-n) }
      | Neg, Efloat f -> { e with edesc = Efloat (-.f) }
      | Lnot, Eint n -> { e with edesc = Eint (if n = 0 then 1 else 0) }
      | Bnot, Eint n when in_int_range tgt e.ety (lnot n) ->
          { e with edesc = Eint (lnot n) }
      | Fabs, Efloat f -> { e with edesc = Efloat (Float.abs f) }
      | _ -> { e with edesc = Eunop (op, a) })
  | Ebinop (op, a, b) -> (
      let a = fold_expr tgt a in
      let b = fold_expr tgt b in
      let keep () = { e with edesc = Ebinop (op, a, b) } in
      match (a.edesc, b.edesc) with
      | Eint x, Eint y -> (
          let fold_int n = if in_int_range tgt e.ety n then { e with edesc = Eint n } else keep () in
          match op with
          | Add -> fold_int (x + y)
          | Sub -> fold_int (x - y)
          | Mul -> fold_int (x * y)
          | Div -> if y = 0 then keep () else fold_int (x / y)
          | Mod -> if y = 0 then keep () else fold_int (x mod y)
          | Shl -> if y < 0 || y > 31 then keep () else fold_int (x lsl y)
          | Shr -> if y < 0 || y > 31 then keep () else fold_int (x asr y)
          | Band -> fold_int (x land y)
          | Bor -> fold_int (x lor y)
          | Bxor -> fold_int (x lxor y)
          | Land -> { e with edesc = Eint (if x <> 0 && y <> 0 then 1 else 0) }
          | Lor -> { e with edesc = Eint (if x <> 0 || y <> 0 then 1 else 0) }
          | Lt -> { e with edesc = Eint (if x < y then 1 else 0) }
          | Gt -> { e with edesc = Eint (if x > y then 1 else 0) }
          | Le -> { e with edesc = Eint (if x <= y then 1 else 0) }
          | Ge -> { e with edesc = Eint (if x >= y then 1 else 0) }
          | Eq -> { e with edesc = Eint (if x = y then 1 else 0) }
          | Ne -> { e with edesc = Eint (if x <> y then 1 else 0) })
      | Efloat _, Efloat _ ->
          (* floating-point constant folding is NOT performed: the abstract
             evaluation handles rounding soundly and folding here would
             have to duplicate that logic *)
          keep ()
      | _ -> keep ())

and fold_lval tgt (lv : lval) : lval =
  match lv.ldesc with
  | Lvar _ | Lderef _ -> lv
  | Lindex (a, i) -> { lv with ldesc = Lindex (fold_lval tgt a, fold_expr tgt i) }
  | Lfield (a, f) -> { lv with ldesc = Lfield (fold_lval tgt a, f) }

let rec fold_stmt tgt (s : stmt) : stmt =
  match s.sdesc with
  | Sassign (lv, e) -> { s with sdesc = Sassign (fold_lval tgt lv, fold_expr tgt e) }
  | Scall (r, f, args) ->
      let args =
        List.map
          (function
            | Aval e -> Aval (fold_expr tgt e)
            | Aref lv -> Aref (fold_lval tgt lv))
          args
      in
      { s with sdesc = Scall (r, f, args) }
  | Sif (c, a, b) -> (
      let c = fold_expr tgt c in
      let a = List.map (fold_stmt tgt) a in
      let b = List.map (fold_stmt tgt) b in
      match c.edesc with
      | Eint 0 -> { s with sdesc = Sif (c, [], b) }
      | Eint _ -> { s with sdesc = Sif (c, a, []) }
      | _ -> { s with sdesc = Sif (c, a, b) })
  | Swhile (li, c, b) ->
      { s with sdesc = Swhile (li, fold_expr tgt c, List.map (fold_stmt tgt) b) }
  | Sreturn (Some e) -> { s with sdesc = Sreturn (Some (fold_expr tgt e)) }
  | Sassert e -> { s with sdesc = Sassert (fold_expr tgt e) }
  | Sassume e -> { s with sdesc = Sassume (fold_expr tgt e) }
  | Slocal (v, Some e) -> { s with sdesc = Slocal (v, Some (fold_expr tgt e)) }
  | _ -> s

(* ------------------------------------------------------------------ *)
(* Constant-array read replacement                                     *)
(* ------------------------------------------------------------------ *)

(* Roots assigned (directly or by reference) anywhere in the program. *)
let assigned_roots (p : program) : VarSet.t =
  let acc = ref VarSet.empty in
  let add lv = acc := VarSet.add (lval_root lv) !acc in
  List.iter
    (fun (_, fd) ->
      iter_stmts
        (fun s ->
          match s.sdesc with
          | Sassign (lv, _) -> add lv
          | Scall (_, _, args) ->
              List.iter (function Aref lv -> add lv | Aval _ -> ()) args
          | _ -> ())
        fd.fd_body)
    p.p_funs;
  !acc

let init_const_at (init : init) (path : int list) : edesc option =
  let rec go init path =
    match (init, path) with
    | Iint n, [] -> Some (Eint n)
    | Ifloat f, [] -> Some (Efloat f)
    | Izero, [] -> Some (Eint 0)
    | Iarray items, i :: rest -> (
        match List.nth_opt items i with
        | Some it -> go it rest
        | None -> None)
    | Izero, _ :: _ -> Some (Eint 0)
    | _ -> None
  in
  go init path

(* Replace reads tab[c1][c2]... of constant arrays by their value, and
   fold again the functions where a read was replaced. *)
let replace_const_reads (p : program) : program =
  let assigned = assigned_roots p in
  let const_globals =
    List.filter_map
      (fun (v, init) ->
        match v.v_ty with
        | Ctypes.Tarray _
          when (not (VarSet.mem v assigned)) && not v.v_volatile ->
            Some (v.v_id, init)
        | _ -> None)
      p.p_globals
    |> List.to_seq |> Hashtbl.of_seq
  in
  let rec try_path (lv : lval) : (int * int list) option =
    (* returns (root id, reversed constant index path) *)
    match lv.ldesc with
    | Lvar v -> Some (v.v_id, [])
    | Lindex (a, i) -> (
        match (try_path a, as_const_int i) with
        | Some (root, path), Some n -> Some (root, n :: path)
        | _ -> None)
    | _ -> None
  in
  let replaced = ref false in
  let rec tr_expr (e : expr) : expr =
    match e.edesc with
    | Elval lv -> (
        match try_path lv with
        | Some (root, rev_path) when Hashtbl.mem const_globals root -> (
            let init = Hashtbl.find const_globals root in
            match init_const_at init (List.rev rev_path) with
            | Some d ->
                replaced := true;
                { e with edesc = d }
            | None -> { e with edesc = Elval (tr_lval lv) })
        | _ -> { e with edesc = Elval (tr_lval lv) })
    | Eunop (op, a) -> { e with edesc = Eunop (op, tr_expr a) }
    | Ebinop (op, a, b) -> { e with edesc = Ebinop (op, tr_expr a, tr_expr b) }
    | Ecast (s, a) -> { e with edesc = Ecast (s, tr_expr a) }
    | _ -> e
  and tr_lval (lv : lval) : lval =
    match lv.ldesc with
    | Lindex (a, i) -> { lv with ldesc = Lindex (tr_lval a, tr_expr i) }
    | Lfield (a, f) -> { lv with ldesc = Lfield (tr_lval a, f) }
    | _ -> lv
  in
  let rec tr_stmt (s : stmt) : stmt =
    match s.sdesc with
    | Sassign (lv, e) -> { s with sdesc = Sassign (tr_lval lv, tr_expr e) }
    | Scall (r, f, args) ->
        let args =
          List.map
            (function Aval e -> Aval (tr_expr e) | Aref lv -> Aref (tr_lval lv))
            args
        in
        { s with sdesc = Scall (r, f, args) }
    | Sif (c, a, b) ->
        { s with sdesc = Sif (tr_expr c, List.map tr_stmt a, List.map tr_stmt b) }
    | Swhile (li, c, b) ->
        { s with sdesc = Swhile (li, tr_expr c, List.map tr_stmt b) }
    | Sreturn (Some e) -> { s with sdesc = Sreturn (Some (tr_expr e)) }
    | Sassert e -> { s with sdesc = Sassert (tr_expr e) }
    | Sassume e -> { s with sdesc = Sassume (tr_expr e) }
    | Slocal (v, Some e) -> { s with sdesc = Slocal (v, Some (tr_expr e)) }
    | _ -> s
  in
  (* a function without a replaced read keeps its body; folding is
     idempotent there *)
  let p_funs =
    List.map
      (fun (n, fd) ->
        replaced := false;
        let body = List.map tr_stmt fd.fd_body in
        if !replaced then
          (n, { fd with fd_body = List.map (fold_stmt p.p_target) body })
        else (n, fd))
      p.p_funs
  in
  { p with p_funs }

(* ------------------------------------------------------------------ *)
(* Unused-global deletion                                              *)
(* ------------------------------------------------------------------ *)

(* the ids of the variables the functions read or write *)
let used_globals (p : program) : (int, unit) Hashtbl.t =
  let used = Hashtbl.create 256 in
  let add v = Hashtbl.replace used v.v_id () in
  let add_expr = iter_expr_vars add and add_lval = iter_lval_vars add in
  List.iter
    (fun (_, fd) ->
      iter_stmts
        (fun s ->
          match s.sdesc with
          | Sassign (lv, e) -> add_lval lv; add_expr e
          | Scall (_, _, args) ->
              List.iter
                (function Aval e -> add_expr e | Aref lv -> add_lval lv)
                args
          | Sif (c, _, _) | Swhile (_, c, _) -> add_expr c
          | Sreturn (Some e) | Sassert e | Sassume e -> add_expr e
          | Slocal (_, Some e) -> add_expr e
          | _ -> ())
        fd.fd_body)
    p.p_funs;
  List.iter (fun spec -> add spec.in_var) p.p_inputs;
  used

let remove_unused_globals (p : program) : program =
  let used = used_globals p in
  {
    p with
    p_globals =
      List.filter
        (fun (v, _) -> Hashtbl.mem used v.v_id || v.v_volatile)
        p.p_globals;
  }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Run all simplifications.  Statistics about removed globals are
    reported through the returned record. *)
type stats = { globals_before : int; globals_after : int }

let run (p : program) : program * stats =
  let globals_before = List.length p.p_globals in
  let p =
    {
      p with
      p_funs =
        List.map
          (fun (n, fd) ->
            (n, { fd with fd_body = List.map (fold_stmt p.p_target) fd.fd_body }))
          p.p_funs;
    }
  in
  let p = replace_const_reads p in
  let p = remove_unused_globals p in
  (p, { globals_before; globals_after = List.length p.p_globals })
