(** Type-checking and elaboration from {!Ast} to the normalized {!Tast} IR.

    Implements the "type-checked and compiled to an intermediate
    representation" step of Sect. 5.1, including:
    - explicit types on every node and unique variable identifiers;
    - purification of expressions (side effects and calls are hoisted into
      statements with fresh temporaries, so that the iterator can assume
      pure conditions, Sect. 5.4);
    - desugaring of [for], [do]/[while], [switch], [?:], compound
      assignments and increments;
    - recognition of the analyzer intrinsics ([__astree_wait_for_clock],
      [__astree_assert], [__astree_assume], [__astree_input_range]);
    - evaluation of syntactically constant expressions (Sect. 5.1). *)

exception Error of string * Loc.t

let err loc fmt = Fmt.kstr (fun m -> raise (Error (m, loc))) fmt

(* ------------------------------------------------------------------ *)
(* Elaboration environment                                             *)
(* ------------------------------------------------------------------ *)

type fun_sig = { fs_ret : Ctypes.t; fs_params : (string * Ctypes.t) list }

type env = {
  target : Ctypes.target;
  typedefs : (string, Ctypes.t) Hashtbl.t;
  structs : (string, Ctypes.struct_def) Hashtbl.t;
  enums : (string, int) Hashtbl.t;          (* enumeration constants *)
  globals : (string, Tast.var) Hashtbl.t;
  fun_sigs : (string, fun_sig) Hashtbl.t;
  mutable global_inits : (Tast.var * Tast.init) list;  (* reversed *)
  mutable inputs : Tast.input_spec list;
  mutable scopes : (string, Tast.var) Hashtbl.t list;  (* innermost first *)
  mutable next_id : int;
  mutable next_tmp : int;
  mutable next_loop : int;
  mutable cur_fun : string;
  mutable cur_ret : Ctypes.t;
  mutable hoisted_statics : (Tast.var * Tast.init) list;
}

let make_env target =
  {
    target;
    typedefs = Hashtbl.create 16;
    structs = Hashtbl.create 16;
    enums = Hashtbl.create 16;
    globals = Hashtbl.create 64;
    fun_sigs = Hashtbl.create 16;
    global_inits = [];
    inputs = [];
    scopes = [];
    next_id = 0;
    next_tmp = 0;
    next_loop = 0;
    cur_fun = "";
    cur_ret = Ctypes.Tvoid;
    hoisted_statics = [];
  }

let fresh_id env =
  let id = env.next_id in
  env.next_id <- id + 1;
  id

let fresh_var env ~name ~orig ~ty ~kind ~volatile ~loc : Tast.var =
  {
    Tast.v_id = fresh_id env;
    v_name = name;
    v_orig = orig;
    v_ty = ty;
    v_kind = kind;
    v_volatile = volatile;
    v_loc = loc;
  }

let fresh_tmp env ~ty ~loc : Tast.var =
  let n = env.next_tmp in
  env.next_tmp <- n + 1;
  fresh_var env
    ~name:("__tmp" ^ string_of_int n)
    ~orig:"<tmp>" ~ty ~kind:Tast.Ktmp ~volatile:false ~loc

let fresh_loop env loc : Tast.loop_info =
  let id = env.next_loop in
  env.next_loop <- id + 1;
  { Tast.loop_id = id; loop_loc = loc }

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes
let pop_scope env =
  match env.scopes with [] -> () | _ :: rest -> env.scopes <- rest

let bind_local env name var =
  match env.scopes with
  | [] -> invalid_arg "bind_local: no scope"
  | s :: _ -> Hashtbl.replace s name var

let lookup_var env name : Tast.var option =
  let rec in_scopes = function
    | [] -> Hashtbl.find_opt env.globals name
    | s :: rest -> (
        match Hashtbl.find_opt s name with
        | Some v -> Some v
        | None -> in_scopes rest)
  in
  in_scopes env.scopes

(* ------------------------------------------------------------------ *)
(* Type resolution                                                     *)
(* ------------------------------------------------------------------ *)

let rec resolve_type env loc (te : Ast.type_expr) : Ctypes.t =
  match te with
  | Ast.Tvoid_te -> Ctypes.Tvoid
  | Ast.Tbase s -> Ctypes.Tscalar s
  | Ast.Tname n -> (
      match Hashtbl.find_opt env.typedefs n with
      | Some t -> t
      | None -> err loc "unknown type name %s" n)
  | Ast.Tstruct_te tag ->
      if not (Hashtbl.mem env.structs tag) then
        err loc "unknown struct %s" tag;
      Ctypes.Tstruct tag
  | Ast.Tarray_te (elt, sz) ->
      let eltt = resolve_type env loc elt in
      let n =
        match sz with
        | None -> err loc "array size required"
        | Some e -> (
            match const_int_expr env e with
            | Some n when n > 0 -> n
            | Some n -> err loc "invalid array size %d" n
            | None -> err loc "array size is not a constant expression")
      in
      Ctypes.Tarray (eltt, n)
  | Ast.Tptr_te t -> Ctypes.Tptr (resolve_type env loc t)

(* Syntactic constant evaluation over the untyped AST (used for array
   sizes, enum values and static initializers). *)
and const_int_expr env (e : Ast.expr) : int option =
  match e.Ast.edesc with
  | Ast.Eint (n, _, _) -> Some n
  | Ast.Evar x -> Hashtbl.find_opt env.enums x
  | Ast.Eunop (Ast.Neg, a) -> Option.map Int.neg (const_int_expr env a)
  | Ast.Eunop (Ast.Bnot, a) -> Option.map lnot (const_int_expr env a)
  | Ast.Eunop (Ast.Lnot, a) ->
      Option.map (fun n -> if n = 0 then 1 else 0) (const_int_expr env a)
  | Ast.Ebinop (op, a, b) -> (
      match (const_int_expr env a, const_int_expr env b) with
      | Some x, Some y -> (
          match op with
          | Ast.Add -> Some (x + y)
          | Ast.Sub -> Some (x - y)
          | Ast.Mul -> Some (x * y)
          | Ast.Div -> if y = 0 then None else Some (x / y)
          | Ast.Mod -> if y = 0 then None else Some (x mod y)
          | Ast.Shl -> Some (x lsl y)
          | Ast.Shr -> Some (x asr y)
          | Ast.Band -> Some (x land y)
          | Ast.Bor -> Some (x lor y)
          | Ast.Bxor -> Some (x lxor y)
          | Ast.Lt -> Some (if x < y then 1 else 0)
          | Ast.Gt -> Some (if x > y then 1 else 0)
          | Ast.Le -> Some (if x <= y then 1 else 0)
          | Ast.Ge -> Some (if x >= y then 1 else 0)
          | Ast.Eq -> Some (if x = y then 1 else 0)
          | Ast.Ne -> Some (if x <> y then 1 else 0)
          | Ast.Land -> Some (if x <> 0 && y <> 0 then 1 else 0)
          | Ast.Lor -> Some (if x <> 0 || y <> 0 then 1 else 0))
      | _ -> None)
  | Ast.Ecast (_, a) -> const_int_expr env a
  | Ast.Econd (c, a, b) -> (
      match const_int_expr env c with
      | Some 0 -> const_int_expr env b
      | Some _ -> const_int_expr env a
      | None -> None)
  | Ast.Esizeof te -> (
      match resolve_type env e.Ast.eloc te with
      | t -> Some (sizeof env t)
      | exception _ -> None)
  | _ -> None

and const_float_expr env (e : Ast.expr) : float option =
  match e.Ast.edesc with
  | Ast.Efloat (f, _) -> Some f
  | Ast.Eunop (Ast.Neg, a) -> Option.map Float.neg (const_float_expr env a)
  | Ast.Ecast (_, a) -> const_float_expr env a
  | Ast.Ebinop (op, a, b) -> (
      match (const_float_expr env a, const_float_expr env b) with
      | Some x, Some y -> (
          match op with
          | Ast.Add -> Some (x +. y)
          | Ast.Sub -> Some (x -. y)
          | Ast.Mul -> Some (x *. y)
          | Ast.Div -> Some (x /. y)
          | _ -> None)
      | _ -> (
          match (const_int_expr env a, const_float_expr env b) with
          | Some x, Some y -> (
              match op with
              | Ast.Add -> Some (float_of_int x +. y)
              | Ast.Sub -> Some (float_of_int x -. y)
              | Ast.Mul -> Some (float_of_int x *. y)
              | Ast.Div -> Some (float_of_int x /. y)
              | _ -> None)
          | _ -> (
              match (const_float_expr env a, const_int_expr env b) with
              | Some x, Some y -> (
                  match op with
                  | Ast.Add -> Some (x +. float_of_int y)
                  | Ast.Sub -> Some (x -. float_of_int y)
                  | Ast.Mul -> Some (x *. float_of_int y)
                  | Ast.Div -> Some (x /. float_of_int y)
                  | _ -> None)
              | _ -> None)))
  | _ -> (
      match const_int_expr env e with
      | Some n -> Some (float_of_int n)
      | None -> None)

and sizeof env : Ctypes.t -> int = function
  | Ctypes.Tvoid -> 1
  | Ctypes.Tscalar (Ctypes.Tint (r, _)) -> Ctypes.size_of_irank env.target r
  | Ctypes.Tscalar (Ctypes.Tfloat Ctypes.Fsingle) -> 4
  | Ctypes.Tscalar (Ctypes.Tfloat Ctypes.Fdouble) -> 8
  | Ctypes.Tarray (t, n) -> n * sizeof env t
  | Ctypes.Tstruct tag -> (
      match Hashtbl.find_opt env.structs tag with
      | Some sd ->
          List.fold_left (fun acc (_, t) -> acc + sizeof env t) 0 sd.Ctypes.fields
      | None -> 0)
  | Ctypes.Tptr _ -> 4

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let scalar_of _env loc (t : Ctypes.t) : Ctypes.scalar =
  match t with
  | Ctypes.Tscalar s -> s
  | t -> err loc "expected a scalar type, got %a" Ctypes.pp t

(* Insert an explicit conversion when types differ. *)
let cast_to (s : Ctypes.scalar) (e : Tast.expr) : Tast.expr =
  if Ctypes.equal_scalar e.Tast.ety s then e
  else { Tast.edesc = Tast.Ecast (s, e); ety = s; eloc = e.Tast.eloc }

let bool_of_expr (e : Tast.expr) : Tast.expr =
  (* normalize a scalar used as a truth value into e != 0 *)
  match e.Tast.edesc with
  | Tast.Ebinop ((Lt | Gt | Le | Ge | Eq | Ne | Land | Lor), _, _)
  | Tast.Eunop (Tast.Lnot, _) ->
      e
  | _ ->
      let zero =
        if Ctypes.is_float (Ctypes.Tscalar e.Tast.ety) then
          { Tast.edesc = Tast.Efloat 0.0; ety = e.Tast.ety; eloc = e.Tast.eloc }
        else { Tast.edesc = Tast.Eint 0; ety = e.Tast.ety; eloc = e.Tast.eloc }
      in
      {
        Tast.edesc = Tast.Ebinop (Tast.Ne, e, zero);
        ety = Ctypes.Tint (Ctypes.Int, Ctypes.Signed);
        eloc = e.Tast.eloc;
      }

let tr_binop : Ast.binop -> Tast.binop = function
  | Ast.Add -> Tast.Add | Ast.Sub -> Tast.Sub | Ast.Mul -> Tast.Mul
  | Ast.Div -> Tast.Div | Ast.Mod -> Tast.Mod
  | Ast.Shl -> Tast.Shl | Ast.Shr -> Tast.Shr
  | Ast.Band -> Tast.Band | Ast.Bor -> Tast.Bor | Ast.Bxor -> Tast.Bxor
  | Ast.Land -> Tast.Land | Ast.Lor -> Tast.Lor
  | Ast.Lt -> Tast.Lt | Ast.Gt -> Tast.Gt | Ast.Le -> Tast.Le
  | Ast.Ge -> Tast.Ge | Ast.Eq -> Tast.Eq | Ast.Ne -> Tast.Ne

(* ------------------------------------------------------------------ *)
(* Expression elaboration                                              *)
(* ------------------------------------------------------------------ *)

(* Elaboration returns a list of prefix statements (reversed) plus a pure
   expression.  [emit] appends to the prefix. *)

type ctx = { env : env; mutable prefix : Tast.stmt list (* reversed *) }

let emit ctx s = ctx.prefix <- s :: ctx.prefix

let mk_stmt loc sdesc = { Tast.sdesc; sloc = loc }
let mk_expr loc ety edesc = { Tast.edesc; ety; eloc = loc }
let mk_lval loc lty ldesc = { Tast.ldesc; lty; lloc = loc }

let int_ty = Ctypes.Tint (Ctypes.Int, Ctypes.Signed)

(* Declare a fresh temporary holding [e]'s value; returns the lval. *)
let save_in_tmp ctx (e : Tast.expr) : Tast.expr =
  let v = fresh_tmp ctx.env ~ty:(Ctypes.Tscalar e.Tast.ety) ~loc:e.Tast.eloc in
  emit ctx (mk_stmt e.Tast.eloc (Tast.Slocal (v, Some e)));
  mk_expr e.Tast.eloc e.Tast.ety
    (Tast.Elval (mk_lval e.Tast.eloc (Ctypes.Tscalar e.Tast.ety) (Tast.Lvar v)))

let rec elab_expr ctx (e : Ast.expr) : Tast.expr =
  let env = ctx.env in
  let loc = e.Ast.eloc in
  match e.Ast.edesc with
  | Ast.Eint (n, r, s) -> mk_expr loc (Ctypes.Tint (r, s)) (Tast.Eint n)
  | Ast.Efloat (f, k) -> mk_expr loc (Ctypes.Tfloat k) (Tast.Efloat f)
  | Ast.Evar x -> (
      match Hashtbl.find_opt env.enums x with
      | Some n -> mk_expr loc int_ty (Tast.Eint n)
      | None -> (
          match lookup_var env x with
          | Some v -> (
              match v.Tast.v_ty with
              | Ctypes.Tscalar s ->
                  mk_expr loc s
                    (Tast.Elval (mk_lval loc v.Tast.v_ty (Tast.Lvar v)))
              | _ -> err loc "variable %s used as a scalar value" x)
          | None -> err loc "unbound variable %s" x))
  | Ast.Eunop (op, a) -> (
      let a' = elab_expr ctx a in
      match op with
      | Ast.Neg ->
          let s = Ctypes.promote env.target a'.Tast.ety in
          let a' = cast_to s a' in
          mk_expr loc s (Tast.Eunop (Tast.Neg, a'))
      | Ast.Bnot ->
          if not (Ctypes.is_integer (Ctypes.Tscalar a'.Tast.ety)) then
            err loc "~ applied to a non-integer";
          let s = Ctypes.promote env.target a'.Tast.ety in
          let a' = cast_to s a' in
          mk_expr loc s (Tast.Eunop (Tast.Bnot, a'))
      | Ast.Lnot -> mk_expr loc int_ty (Tast.Eunop (Tast.Lnot, bool_of_expr a')))
  | Ast.Ebinop ((Ast.Land | Ast.Lor) as op, a, b) ->
      (* elaborate rhs into a sub-context to detect side effects *)
      let a' = bool_of_expr (elab_expr ctx a) in
      let sub = { env; prefix = [] } in
      let b' = bool_of_expr (elab_expr sub b) in
      if sub.prefix = [] then
        mk_expr loc int_ty (Tast.Ebinop (tr_binop op, a', b'))
      else begin
        (* short-circuit with effects: desugar via a temporary and a test *)
        let v = fresh_tmp env ~ty:(Ctypes.Tscalar int_ty) ~loc in
        let vlv = mk_lval loc (Ctypes.Tscalar int_ty) (Tast.Lvar v) in
        let default_ = if op = Ast.Land then 0 else 1 in
        emit ctx
          (mk_stmt loc
             (Tast.Slocal (v, Some (mk_expr loc int_ty (Tast.Eint default_)))));
        let then_body =
          List.rev
            (mk_stmt loc (Tast.Sassign (vlv, b')) :: sub.prefix)
        in
        let cond = if op = Ast.Land then a'
          else mk_expr loc int_ty (Tast.Eunop (Tast.Lnot, a')) in
        emit ctx (mk_stmt loc (Tast.Sif (cond, then_body, [])));
        mk_expr loc int_ty (Tast.Elval vlv)
      end
  | Ast.Ebinop (op, a, b) -> (
      let a' = elab_expr ctx a in
      let b' = elab_expr ctx b in
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div ->
          let s = Ctypes.usual_arith env.target a'.Tast.ety b'.Tast.ety in
          mk_expr loc s (Tast.Ebinop (tr_binop op, cast_to s a', cast_to s b'))
      | Ast.Mod | Ast.Band | Ast.Bor | Ast.Bxor ->
          if
            not
              (Ctypes.is_integer (Ctypes.Tscalar a'.Tast.ety)
              && Ctypes.is_integer (Ctypes.Tscalar b'.Tast.ety))
          then err loc "integer operator applied to non-integers";
          let s = Ctypes.usual_arith env.target a'.Tast.ety b'.Tast.ety in
          mk_expr loc s (Tast.Ebinop (tr_binop op, cast_to s a', cast_to s b'))
      | Ast.Shl | Ast.Shr ->
          if
            not
              (Ctypes.is_integer (Ctypes.Tscalar a'.Tast.ety)
              && Ctypes.is_integer (Ctypes.Tscalar b'.Tast.ety))
          then err loc "shift applied to non-integers";
          let s = Ctypes.promote env.target a'.Tast.ety in
          mk_expr loc s
            (Tast.Ebinop
               (tr_binop op, cast_to s a',
                cast_to (Ctypes.promote env.target b'.Tast.ety) b'))
      | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne ->
          let s = Ctypes.usual_arith env.target a'.Tast.ety b'.Tast.ety in
          mk_expr loc int_ty
            (Tast.Ebinop (tr_binop op, cast_to s a', cast_to s b'))
      | Ast.Land | Ast.Lor -> assert false)
  | Ast.Eassign (lhs, rhs) ->
      let lv = elab_lval ctx lhs in
      let rhs' = elab_expr ctx rhs in
      let s = scalar_of env loc lv.Tast.lty in
      let rhs' = cast_to s rhs' in
      emit ctx (mk_stmt loc (Tast.Sassign (lv, rhs')));
      mk_expr loc s (Tast.Elval lv)
  | Ast.Eassign_op (op, lhs, rhs) ->
      let lv = elab_lval ctx lhs in
      let s = scalar_of env loc lv.Tast.lty in
      let cur = mk_expr loc s (Tast.Elval lv) in
      let rhs' = elab_expr ctx rhs in
      let sop = Ctypes.usual_arith env.target s rhs'.Tast.ety in
      let res =
        mk_expr loc sop (Tast.Ebinop (tr_binop op, cast_to sop cur, cast_to sop rhs'))
      in
      emit ctx (mk_stmt loc (Tast.Sassign (lv, cast_to s res)));
      mk_expr loc s (Tast.Elval lv)
  | Ast.Epreincr (up, lhs) ->
      let lv = elab_lval ctx lhs in
      let s = scalar_of env loc lv.Tast.lty in
      let one = mk_expr loc int_ty (Tast.Eint 1) in
      let sop = Ctypes.usual_arith env.target s int_ty in
      let cur = mk_expr loc s (Tast.Elval lv) in
      let res =
        mk_expr loc sop
          (Tast.Ebinop ((if up then Tast.Add else Tast.Sub),
                        cast_to sop cur, cast_to sop one))
      in
      emit ctx (mk_stmt loc (Tast.Sassign (lv, cast_to s res)));
      mk_expr loc s (Tast.Elval lv)
  | Ast.Epostincr (up, lhs) ->
      let lv = elab_lval ctx lhs in
      let s = scalar_of env loc lv.Tast.lty in
      let old = save_in_tmp ctx (mk_expr loc s (Tast.Elval lv)) in
      let one = mk_expr loc int_ty (Tast.Eint 1) in
      let sop = Ctypes.usual_arith env.target s int_ty in
      let cur = mk_expr loc s (Tast.Elval lv) in
      let res =
        mk_expr loc sop
          (Tast.Ebinop ((if up then Tast.Add else Tast.Sub),
                        cast_to sop cur, cast_to sop one))
      in
      emit ctx (mk_stmt loc (Tast.Sassign (lv, cast_to s res)));
      old
  | Ast.Ecall (name, args) -> elab_call ctx loc name args
  | Ast.Eindex _ | Ast.Efield _ | Ast.Earrow _ | Ast.Ederef _ ->
      let lv = elab_lval ctx e in
      let s = scalar_of env loc lv.Tast.lty in
      mk_expr loc s (Tast.Elval lv)
  | Ast.Eaddr _ -> err loc "& allowed only in call-argument position"
  | Ast.Ecast (te, a) -> (
      let t = resolve_type env loc te in
      let a' = elab_expr ctx a in
      match t with
      | Ctypes.Tscalar s -> cast_to s a'
      | _ -> err loc "unsupported cast to %a" Ctypes.pp t)
  | Ast.Econd (c, a, b) ->
      (* desugared into a temporary and a test *)
      let c' = bool_of_expr (elab_expr ctx c) in
      let suba = { env; prefix = [] } in
      let a' = elab_expr suba a in
      let subb = { env; prefix = [] } in
      let b' = elab_expr subb b in
      let s = Ctypes.usual_arith env.target a'.Tast.ety b'.Tast.ety in
      let v = fresh_tmp env ~ty:(Ctypes.Tscalar s) ~loc in
      let vlv = mk_lval loc (Ctypes.Tscalar s) (Tast.Lvar v) in
      emit ctx (mk_stmt loc (Tast.Slocal (v, None)));
      let then_b =
        List.rev (mk_stmt loc (Tast.Sassign (vlv, cast_to s a')) :: suba.prefix)
      in
      let else_b =
        List.rev (mk_stmt loc (Tast.Sassign (vlv, cast_to s b')) :: subb.prefix)
      in
      emit ctx (mk_stmt loc (Tast.Sif (c', then_b, else_b)));
      mk_expr loc s (Tast.Elval vlv)
  | Ast.Ecomma (a, b) ->
      ignore (elab_expr ctx a);
      elab_expr ctx b
  | Ast.Esizeof te ->
      let t = resolve_type env loc te in
      mk_expr loc (Ctypes.Tint (Ctypes.Int, Ctypes.Unsigned))
        (Tast.Eint (sizeof env t))

and elab_lval ctx (e : Ast.expr) : Tast.lval =
  let env = ctx.env in
  let loc = e.Ast.eloc in
  match e.Ast.edesc with
  | Ast.Evar x -> (
      match lookup_var env x with
      | Some v -> (
          match v.Tast.v_ty with
          | Ctypes.Tptr t ->
              (* a pointer parameter used as a value denotes its target
                 only under * or ->; bare use is an error except in
                 argument position (handled in elab_call) *)
              ignore t;
              mk_lval loc v.Tast.v_ty (Tast.Lvar v)
          | _ -> mk_lval loc v.Tast.v_ty (Tast.Lvar v))
      | None -> err loc "unbound variable %s" x)
  | Ast.Eindex (a, i) -> (
      let base = elab_lval ctx a in
      let i' = elab_expr ctx i in
      if not (Ctypes.is_integer (Ctypes.Tscalar i'.Tast.ety)) then
        err loc "array subscript is not an integer";
      match base.Tast.lty with
      | Ctypes.Tarray (t, _) -> mk_lval loc t (Tast.Lindex (base, i'))
      | Ctypes.Tptr (Ctypes.Tarray (t, _) as at) ->
          (* p[i] where p : pointer to array parameter *)
          let root = Tast.lval_root base in
          mk_lval loc t (Tast.Lindex (mk_lval loc at (Tast.Lderef root), i'))
      | t -> err loc "subscript of non-array type %a" Ctypes.pp t)
  | Ast.Efield (a, f) -> (
      let base = elab_lval ctx a in
      match base.Tast.lty with
      | Ctypes.Tstruct tag -> (
          match Hashtbl.find_opt env.structs tag with
          | Some sd -> (
              match List.assoc_opt f sd.Ctypes.fields with
              | Some ft -> mk_lval loc ft (Tast.Lfield (base, f))
              | None -> err loc "struct %s has no field %s" tag f)
          | None -> err loc "unknown struct %s" tag)
      | t -> err loc "field access on non-struct type %a" Ctypes.pp t)
  | Ast.Earrow (a, f) -> (
      (* p->f where p is a pointer parameter *)
      match a.Ast.edesc with
      | Ast.Evar x -> (
          match lookup_var env x with
          | Some v -> (
              match v.Tast.v_ty with
              | Ctypes.Tptr (Ctypes.Tstruct tag as st) -> (
                  match Hashtbl.find_opt env.structs tag with
                  | Some sd -> (
                      match List.assoc_opt f sd.Ctypes.fields with
                      | Some ft ->
                          mk_lval loc ft
                            (Tast.Lfield (mk_lval loc st (Tast.Lderef v), f))
                      | None -> err loc "struct %s has no field %s" tag f)
                  | None -> err loc "unknown struct %s" tag)
              | t -> err loc "-> applied to non-pointer-to-struct %a" Ctypes.pp t)
          | None -> err loc "unbound variable %s" x)
      | _ -> err loc "-> base must be a parameter")
  | Ast.Ederef a -> (
      match a.Ast.edesc with
      | Ast.Evar x -> (
          match lookup_var env x with
          | Some v -> (
              match v.Tast.v_ty with
              | Ctypes.Tptr t -> mk_lval loc t (Tast.Lderef v)
              | t -> err loc "* applied to non-pointer %a" Ctypes.pp t)
          | None -> err loc "unbound variable %s" x)
      | _ -> err loc "* base must be a parameter (call-by-reference only)")
  | _ -> err loc "expression is not an lvalue"

(* Calls, including analyzer intrinsics. *)
and elab_call ctx loc name (args : Ast.expr list) : Tast.expr =
  let env = ctx.env in
  let unit_result () = mk_expr loc int_ty (Tast.Eint 0) in
  match (name, args) with
  | "__astree_wait_for_clock", [] ->
      emit ctx (mk_stmt loc Tast.Swait);
      unit_result ()
  | "__astree_assert", [ a ] ->
      let a' = bool_of_expr (elab_expr ctx a) in
      emit ctx (mk_stmt loc (Tast.Sassert a'));
      unit_result ()
  | "__astree_assume", [ a ] ->
      let a' = bool_of_expr (elab_expr ctx a) in
      emit ctx (mk_stmt loc (Tast.Sassume a'));
      unit_result ()
  | "__astree_input_range", [ x; lo; hi ] -> (
      match x.Ast.edesc with
      | Ast.Evar xn -> (
          match lookup_var env xn with
          | Some v ->
              let flo =
                match const_float_expr env lo with
                | Some f -> f
                | None -> err loc "__astree_input_range: constant bound required"
              in
              let fhi =
                match const_float_expr env hi with
                | Some f -> f
                | None -> err loc "__astree_input_range: constant bound required"
              in
              env.inputs <-
                { Tast.in_var = v; in_lo = flo; in_hi = fhi } :: env.inputs;
              unit_result ()
          | None -> err loc "unbound variable %s" xn)
      | _ -> err loc "__astree_input_range: first argument must be a variable")
  | ("fabs" | "fabsf"), [ a ] ->
      let a' = elab_expr ctx a in
      let k = if name = "fabsf" then Ctypes.Fsingle else Ctypes.Fdouble in
      let a' = cast_to (Ctypes.Tfloat k) a' in
      mk_expr loc (Ctypes.Tfloat k) (Tast.Eunop (Tast.Fabs, a'))
  | ("sqrt" | "sqrtf"), [ a ] ->
      let a' = elab_expr ctx a in
      let k = if name = "sqrtf" then Ctypes.Fsingle else Ctypes.Fdouble in
      let a' = cast_to (Ctypes.Tfloat k) a' in
      mk_expr loc (Ctypes.Tfloat k) (Tast.Eunop (Tast.Sqrt, a'))
  | _ -> (
      match Hashtbl.find_opt env.fun_sigs name with
      | None -> err loc "call to undeclared function %s" name
      | Some fs ->
          if List.length args <> List.length fs.fs_params then
            err loc "function %s expects %d argument(s), got %d" name
              (List.length fs.fs_params) (List.length args);
          let targs =
            List.map2
              (fun (_, pty) (arg : Ast.expr) ->
                match pty with
                | Ctypes.Tptr _ -> (
                    (* by-reference argument: &lval, an array lval, or a
                       pointer parameter passed through *)
                    match arg.Ast.edesc with
                    | Ast.Eaddr a -> Tast.Aref (elab_lval ctx a)
                    | Ast.Evar x -> (
                        match lookup_var env x with
                        | Some v -> (
                            match v.Tast.v_ty with
                            | Ctypes.Tptr t ->
                                Tast.Aref
                                  (mk_lval arg.Ast.eloc t (Tast.Lderef v))
                            | Ctypes.Tarray _ ->
                                Tast.Aref
                                  (mk_lval arg.Ast.eloc v.Tast.v_ty (Tast.Lvar v))
                            | _ ->
                                err arg.Ast.eloc
                                  "argument for a reference parameter must be \
                                   &lvalue or an array")
                        | None -> err arg.Ast.eloc "unbound variable %s" x)
                    | _ ->
                        err arg.Ast.eloc
                          "argument for a reference parameter must be &lvalue")
                | Ctypes.Tscalar s ->
                    let a' = elab_expr ctx arg in
                    Tast.Aval (cast_to s a')
                | t ->
                    err arg.Ast.eloc "unsupported parameter type %a" Ctypes.pp t)
              fs.fs_params args
          in
          match fs.fs_ret with
          | Ctypes.Tvoid ->
              emit ctx (mk_stmt loc (Tast.Scall (None, name, targs)));
              unit_result ()
          | Ctypes.Tscalar s ->
              let v = fresh_tmp env ~ty:fs.fs_ret ~loc in
              emit ctx (mk_stmt loc (Tast.Slocal (v, None)));
              emit ctx (mk_stmt loc (Tast.Scall (Some v, name, targs)));
              mk_expr loc s
                (Tast.Elval (mk_lval loc fs.fs_ret (Tast.Lvar v)))
          | t -> err loc "unsupported return type %a" Ctypes.pp t)

(* ------------------------------------------------------------------ *)
(* Statement elaboration                                               *)
(* ------------------------------------------------------------------ *)

let rec contains_continue (s : Ast.stmt) : bool =
  match s.Ast.sdesc with
  | Ast.Scontinue -> true
  | Ast.Sif (_, a, b) ->
      contains_continue a
      || (match b with Some b -> contains_continue b | None -> false)
  | Ast.Sblock b -> List.exists contains_continue b
  | Ast.Sswitch (_, cases) ->
      List.exists
        (fun c -> List.exists contains_continue c.Ast.case_body)
        cases
  | _ -> false (* nested loops capture their own continue *)

let rec elab_stmt (env : env) (s : Ast.stmt) : Tast.stmt list =
  let loc = s.Ast.sloc in
  let ctx = { env; prefix = [] } in
  match s.Ast.sdesc with
  | Ast.Sskip -> []
  | Ast.Sexpr e ->
      ignore (elab_expr ctx e);
      List.rev ctx.prefix
  | Ast.Sif (c, a, b) ->
      let c' = bool_of_expr (elab_expr ctx c) in
      push_scope env;
      let a' = elab_stmt env a in
      pop_scope env;
      push_scope env;
      let b' = match b with Some b -> elab_stmt env b | None -> [] in
      pop_scope env;
      List.rev (mk_stmt loc (Tast.Sif (c', a', b')) :: ctx.prefix)
  | Ast.Swhile (c, body) ->
      let li = fresh_loop env loc in
      (* the condition's effect-prefix must re-run at each iteration: it
         is prepended to the loop body and emitted before the loop *)
      let c' = bool_of_expr (elab_expr ctx c) in
      push_scope env;
      let body' = elab_stmt env body in
      pop_scope env;
      let cond_prefix = List.rev ctx.prefix in
      cond_prefix
      @ [ mk_stmt loc (Tast.Swhile (li, c', body' @ cond_prefix)) ]
  | Ast.Sdowhile (body, c) ->
      (* desugared as body; while (c) { body } *)
      push_scope env;
      let body1 = elab_stmt env body in
      pop_scope env;
      let li = fresh_loop env loc in
      let c' = bool_of_expr (elab_expr ctx c) in
      push_scope env;
      let body2 = elab_stmt env body in
      pop_scope env;
      let cond_prefix = List.rev ctx.prefix in
      body1 @ cond_prefix
      @ [ mk_stmt loc (Tast.Swhile (li, c', body2 @ cond_prefix)) ]
  | Ast.Sfor (init, cond, step, body) ->
      if contains_continue body then
        err loc "continue inside for loops is not supported by the subset";
      push_scope env;
      let init_stmts =
        match init with
        | None -> []
        | Some e ->
            let c = { env; prefix = [] } in
            ignore (elab_expr c e);
            List.rev c.prefix
      in
      let cctx = { env; prefix = [] } in
      let c' =
        match cond with
        | None -> mk_expr loc int_ty (Tast.Eint 1)
        | Some c -> bool_of_expr (elab_expr cctx c)
      in
      let cond_prefix = List.rev cctx.prefix in
      let body' = elab_stmt env body in
      let step_stmts =
        match step with
        | None -> []
        | Some e ->
            let c = { env; prefix = [] } in
            ignore (elab_expr c e);
            List.rev c.prefix
      in
      pop_scope env;
      let li = fresh_loop env loc in
      init_stmts @ cond_prefix
      @ [ mk_stmt loc (Tast.Swhile (li, c', body' @ step_stmts @ cond_prefix)) ]
  | Ast.Sblock b ->
      push_scope env;
      let out = List.concat_map (elab_stmt env) b in
      pop_scope env;
      out
  | Ast.Sreturn e ->
      let e' =
        match e with
        | None -> None
        | Some e -> (
            let e' = elab_expr ctx e in
            match env.cur_ret with
            | Ctypes.Tscalar s -> Some (cast_to s e')
            | Ctypes.Tvoid -> None
            | t -> err loc "unsupported return type %a" Ctypes.pp t)
      in
      List.rev (mk_stmt loc (Tast.Sreturn e') :: ctx.prefix)
  | Ast.Sbreak -> [ mk_stmt loc Tast.Sbreak ]
  | Ast.Scontinue -> [ mk_stmt loc Tast.Scontinue ]
  | Ast.Sswitch (e, cases) ->
      (* switch without fallthrough, desugared into an if-else chain on a
         temporary *)
      let e' = elab_expr ctx e in
      let tmp_e = save_in_tmp ctx e' in
      let default_body =
        match
          List.find_opt
            (fun c -> List.exists Option.is_none c.Ast.case_labels)
            cases
        with
        | Some c ->
            push_scope env;
            let b = List.concat_map (elab_stmt env) c.Ast.case_body in
            pop_scope env;
            b
        | None -> []
      in
      let rec chain = function
        | [] -> default_body
        | c :: rest ->
            let consts =
              List.filter_map
                (fun l ->
                  match l with
                  | None -> None
                  | Some le -> (
                      match const_int_expr env le with
                      | Some n -> Some n
                      | None -> err c.Ast.case_loc "case label is not constant"))
                c.Ast.case_labels
            in
            if consts = [] then chain rest
            else begin
              let cond =
                List.fold_left
                  (fun acc n ->
                    let cmp =
                      mk_expr c.Ast.case_loc int_ty
                        (Tast.Ebinop
                           (Tast.Eq, tmp_e,
                            cast_to tmp_e.Tast.ety
                              (mk_expr c.Ast.case_loc int_ty (Tast.Eint n))))
                    in
                    match acc with
                    | None -> Some cmp
                    | Some a ->
                        Some
                          (mk_expr c.Ast.case_loc int_ty
                             (Tast.Ebinop (Tast.Lor, a, cmp))))
                  None consts
                |> Option.get
              in
              push_scope env;
              let body = List.concat_map (elab_stmt env) c.Ast.case_body in
              pop_scope env;
              [ mk_stmt c.Ast.case_loc (Tast.Sif (cond, body, chain rest)) ]
            end
      in
      List.rev ctx.prefix @ chain cases
  | Ast.Sdecl d -> elab_local_decl env d

and elab_local_decl env (d : Ast.decl) : Tast.stmt list =
  let loc = d.Ast.d_loc in
  let ty = resolve_type env loc d.Ast.d_type in
  match d.Ast.d_storage with
  | Ast.Sto_static ->
      (* semantically a global with a fresh name (Sect. 4, footnote 2) *)
      let name = env.cur_fun ^ "$" ^ d.Ast.d_name in
      let v =
        fresh_var env ~name ~orig:d.Ast.d_name ~ty
          ~kind:(Tast.Kstatic env.cur_fun) ~volatile:d.Ast.d_volatile ~loc
      in
      let init = elab_static_init env ty d.Ast.d_init loc in
      env.hoisted_statics <- (v, init) :: env.hoisted_statics;
      bind_local env d.Ast.d_name v;
      []
  | Ast.Sto_extern -> err loc "extern not allowed inside functions"
  | Ast.Sto_none -> (
      let v =
        fresh_var env ~name:d.Ast.d_name ~orig:d.Ast.d_name ~ty
          ~kind:(Tast.Klocal env.cur_fun) ~volatile:d.Ast.d_volatile ~loc
      in
      bind_local env d.Ast.d_name v;
      match (ty, d.Ast.d_init) with
      | Ctypes.Tscalar s, Some (Ast.Init_expr e) ->
          let ctx = { env; prefix = [] } in
          let e' = elab_expr ctx e in
          List.rev ctx.prefix
          @ [ mk_stmt loc (Tast.Slocal (v, Some (cast_to s e'))) ]
      | _, None -> [ mk_stmt loc (Tast.Slocal (v, None)) ]
      | Ctypes.Tarray _, Some (Ast.Init_list items) ->
          (* element-wise assignments *)
          let decl = mk_stmt loc (Tast.Slocal (v, None)) in
          let assigns = elab_array_init env v ty items loc in
          decl :: assigns
      | _ -> err loc "unsupported initializer")

and elab_array_init env v ty items loc : Tast.stmt list =
  match ty with
  | Ctypes.Tarray (elt, _) ->
      List.concat
        (List.mapi
           (fun i item ->
             match (item, elt) with
             | Ast.Init_expr e, Ctypes.Tscalar s ->
                 let ctx = { env; prefix = [] } in
                 let e' = elab_expr ctx e in
                 let idx = mk_expr loc int_ty (Tast.Eint i) in
                 let base = mk_lval loc v.Tast.v_ty (Tast.Lvar v) in
                 let lv = mk_lval loc elt (Tast.Lindex (base, idx)) in
                 List.rev ctx.prefix
                 @ [ mk_stmt loc (Tast.Sassign (lv, cast_to s e')) ]
             | _ -> err loc "unsupported nested initializer")
           items)
  | _ -> err loc "initializer list for a non-array"

(* Static initializers must be compile-time constants. *)
and elab_static_init env (ty : Ctypes.t) (init : Ast.init option) loc : Tast.init =
  match (ty, init) with
  | _, None -> Tast.Izero
  | Ctypes.Tscalar (Ctypes.Tint _), Some (Ast.Init_expr e) -> (
      match const_int_expr env e with
      | Some n -> Tast.Iint n
      | None -> (
          match const_float_expr env e with
          | Some f -> Tast.Iint (int_of_float f)
          | None -> err loc "initializer is not a constant expression"))
  | Ctypes.Tscalar (Ctypes.Tfloat k), Some (Ast.Init_expr e) -> (
      match const_float_expr env e with
      | Some f ->
          let f =
            if k = Ctypes.Fsingle then Int32.float_of_bits (Int32.bits_of_float f)
            else f
          in
          Tast.Ifloat f
      | None -> err loc "initializer is not a constant expression")
  | Ctypes.Tarray (elt, n), Some (Ast.Init_list items) ->
      if List.length items > n then err loc "too many initializers";
      let given =
        List.map (fun i -> elab_static_init env elt (Some i) loc) items
      in
      let pad = List.init (n - List.length items) (fun _ -> Tast.Izero) in
      Tast.Iarray (given @ pad)
  | Ctypes.Tstruct tag, Some (Ast.Init_list items) -> (
      match Hashtbl.find_opt env.structs tag with
      | Some sd ->
          if List.length items > List.length sd.Ctypes.fields then
            err loc "too many initializers";
          let fields =
            List.mapi
              (fun i (fname, fty) ->
                let init = List.nth_opt items i in
                (fname, elab_static_init env fty init loc))
              sd.Ctypes.fields
          in
          Tast.Istruct fields
      | None -> err loc "unknown struct %s" tag)
  | _, Some _ -> err loc "unsupported static initializer for type %a" Ctypes.pp ty

(* ------------------------------------------------------------------ *)
(* Globals                                                             *)
(* ------------------------------------------------------------------ *)

let elab_fundef env (f : Ast.fundef) : Tast.fundef =
  let loc = f.Ast.f_loc in
  let ret = resolve_type env loc f.Ast.f_ret in
  env.cur_fun <- f.Ast.f_name;
  env.cur_ret <- ret;
  push_scope env;
  let params =
    List.map
      (fun (pname, pte) ->
        let pty = resolve_type env loc pte in
        (* array parameters decay to pointers *)
        let pty =
          match pty with Ctypes.Tarray _ -> Ctypes.Tptr pty | t -> t
        in
        let v =
          fresh_var env ~name:(f.Ast.f_name ^ "." ^ pname) ~orig:pname
            ~ty:pty ~kind:(Tast.Kparam f.Ast.f_name) ~volatile:false ~loc
        in
        bind_local env pname v;
        match pty with
        | Ctypes.Tptr _ -> Tast.Pref v
        | _ -> Tast.Pval v)
      f.Ast.f_params
  in
  let body = List.concat_map (elab_stmt env) f.Ast.f_body in
  pop_scope env;
  { Tast.fd_name = f.Ast.f_name; fd_ret = ret; fd_params = params;
    fd_body = body; fd_loc = loc }

(** Elaborate a parsed translation unit into a typed program.  [main] is
    the user-supplied entry point (Sect. 5.3). *)
let elab_program ?(target = Ctypes.default_target) ?(main = "main")
    (u : Ast.unit_) : Tast.program =
  let env = make_env target in
  (* first pass: collect struct/typedef/enum/function signatures so that
     forward references in prototypes work *)
  List.iter
    (fun g ->
      match g with
      | Ast.Gstruct (tag, fields, loc) ->
          (* fields may reference previously defined types *)
          let fields' =
            List.map (fun (n, te) -> (n, resolve_type env loc te)) fields
          in
          Hashtbl.replace env.structs tag
            { Ctypes.sname = tag; fields = fields' }
      | Ast.Gtypedef (name, te, loc) when name <> "<fwd>" ->
          Hashtbl.replace env.typedefs name (resolve_type env loc te)
      | Ast.Genum (_, items, _loc) ->
          let next = ref 0 in
          List.iter
            (fun (n, v) ->
              let value =
                match v with
                | None -> !next
                | Some e -> (
                    match const_int_expr env e with
                    | Some x -> x
                    | None -> err _loc "enum value is not constant")
              in
              Hashtbl.replace env.enums n value;
              next := value + 1)
            items
      | Ast.Gfun f ->
          let ret = resolve_type env f.Ast.f_loc f.Ast.f_ret in
          let params =
            List.map
              (fun (n, te) ->
                let t = resolve_type env f.Ast.f_loc te in
                let t = match t with Ctypes.Tarray _ -> Ctypes.Tptr t | t -> t in
                (n, t))
              f.Ast.f_params
          in
          Hashtbl.replace env.fun_sigs f.Ast.f_name
            { fs_ret = ret; fs_params = params }
      | Ast.Gfundecl (name, rte, params, loc) ->
          let ret = resolve_type env loc rte in
          let params =
            List.map
              (fun (n, te) ->
                let t = resolve_type env loc te in
                let t = match t with Ctypes.Tarray _ -> Ctypes.Tptr t | t -> t in
                (n, t))
              params
          in
          Hashtbl.replace env.fun_sigs name { fs_ret = ret; fs_params = params }
      | _ -> ())
    u.Ast.u_globals;
  (* second pass: globals and function bodies in order *)
  let funs = ref [] in
  List.iter
    (fun g ->
      match g with
      | Ast.Gdecl d ->
          if d.Ast.d_storage = Ast.Sto_extern && d.Ast.d_init = None then
            (* extern declaration without definition: create the variable
               anyway; the linker merges duplicates *)
            ();
          let ty = resolve_type env d.Ast.d_loc d.Ast.d_type in
          if not (Hashtbl.mem env.globals d.Ast.d_name) then begin
            let v =
              fresh_var env ~name:d.Ast.d_name ~orig:d.Ast.d_name ~ty
                ~kind:Tast.Kglobal ~volatile:d.Ast.d_volatile ~loc:d.Ast.d_loc
            in
            Hashtbl.replace env.globals d.Ast.d_name v;
            let init = elab_static_init env ty d.Ast.d_init d.Ast.d_loc in
            env.global_inits <- (v, init) :: env.global_inits
          end
      | Ast.Gfun f -> funs := elab_fundef env f :: !funs
      | _ -> ())
    u.Ast.u_globals;
  let funs = List.rev !funs in
  if not (List.exists (fun fd -> fd.Tast.fd_name = main) funs) then
    err Loc.dummy "entry point %s not found" main;
  {
    Tast.p_file = u.Ast.u_file;
    p_globals = List.rev env.global_inits @ List.rev env.hoisted_statics;
    p_structs =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.structs []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    p_funs = List.map (fun fd -> (fd.Tast.fd_name, fd)) funs;
    p_inputs = List.rev env.inputs;
    p_main = main;
    p_target = target;
  }
