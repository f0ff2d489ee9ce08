(** Typed, normalized intermediate representation.

    This is the "simplified version of the abstract syntax tree with all
    types explicit and variables given unique identifiers" of Sect. 5.1.
    The elaboration performed by {!Typecheck} guarantees, in addition:

    - expressions are pure (assignments, increments and calls occurring in
      expression position have been hoisted into statements with fresh
      temporaries), so conditions "can be assumed to have no side effect
      and to contain no function call" (Sect. 5.4);
    - all implicit conversions are explicit [Ecast] nodes;
    - [for], [do]/[while] and [switch] have been desugared;
    - enumeration constants and [sizeof] have been replaced by integer
      literals. *)

(* ------------------------------------------------------------------ *)
(* Variables                                                           *)
(* ------------------------------------------------------------------ *)

type var_kind =
  | Kglobal
  | Kstatic of string  (** enclosing function; semantically a fresh global *)
  | Klocal of string   (** enclosing function *)
  | Kparam of string
  | Ktmp               (** elaboration-introduced temporary *)

type var = {
  v_id : int;          (** unique identifier *)
  v_name : string;     (** unique name (original, possibly suffixed) *)
  v_orig : string;     (** name as written in the source *)
  v_ty : Ctypes.t;
  v_kind : var_kind;
  v_volatile : bool;
  v_loc : Loc.t;
}

let var_is_global v =
  match v.v_kind with Kglobal | Kstatic _ -> true | _ -> false

let pp_var ppf v = Fmt.string ppf v.v_name

module Var = struct
  type t = var

  let compare a b = Int.compare a.v_id b.v_id
  let equal a b = a.v_id = b.v_id
  let hash a = a.v_id
end

module VarMap = Map.Make (Var)
module VarSet = Set.Make (Var)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

type unop =
  | Neg    (** arithmetic negation *)
  | Bnot   (** bitwise complement (integers) *)
  | Lnot   (** logical negation, yields 0/1 *)
  | Fabs   (** absolute value intrinsic *)
  | Sqrt   (** square-root intrinsic *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr
  | Band | Bor | Bxor
  | Land | Lor                      (** operands are pure; yields 0/1 *)
  | Lt | Gt | Le | Ge | Eq | Ne

type lval = { ldesc : ldesc; lty : Ctypes.t; lloc : Loc.t }

and ldesc =
  | Lvar of var
  | Lindex of lval * expr      (** array subscript; [lval] has array type *)
  | Lfield of lval * string    (** struct field access *)
  | Lderef of var              (** dereference of a pointer parameter *)

and expr = { edesc : edesc; ety : Ctypes.scalar; eloc : Loc.t }

and edesc =
  | Eint of int                (** integer constant of type [ety] *)
  | Efloat of float            (** float constant of type [ety] *)
  | Elval of lval
  | Eunop of unop * expr
  | Ebinop of binop * expr * expr
  | Ecast of Ctypes.scalar * expr

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(** Call arguments: by value (pure expression) or by reference. *)
type arg = Aval of expr | Aref of lval

type stmt = { sdesc : sdesc; sloc : Loc.t }

and sdesc =
  | Sassign of lval * expr
  | Scall of var option * string * arg list
      (** optional destination temporary for the return value *)
  | Sif of expr * block * block
  | Swhile of loop_info * expr * block
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Swait                      (** [__astree_wait_for_clock()] *)
  | Sassert of expr            (** [__astree_assert(e)] — checked *)
  | Sassume of expr            (** [__astree_assume(e)] — trusted spec *)
  | Sskip
  | Slocal of var * expr option
      (** local-variable creation (stack cells are "created and destroyed
          on-the-fly", Sect. 5.2), with optional scalar initializer *)

and block = stmt list

(** Loop identity for per-loop iteration parameters (unrolling factors,
    widening bookkeeping). *)
and loop_info = { loop_id : int; loop_loc : Loc.t }

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

(** Static initializer values (after constant folding). *)
type init =
  | Iint of int
  | Ifloat of float
  | Iarray of init list
  | Istruct of (string * init) list
  | Izero  (** default zero-initialization *)

type param = Pval of var | Pref of var  (** [Pref v]: [v] has pointer type *)

type fundef = {
  fd_name : string;
  fd_ret : Ctypes.t;
  fd_params : param list;
  fd_body : block;
  fd_loc : Loc.t;
}

(** Range specification for a volatile input (Sect. 4: "ranges of values
    for a few hardware registers containing volatile input variables"). *)
type input_spec = { in_var : var; in_lo : float; in_hi : float }

type program = {
  p_file : string;
  p_globals : (var * init) list;
  p_structs : (string * Ctypes.struct_def) list;
  p_funs : (string * fundef) list;
  p_inputs : input_spec list;
  p_main : string;
  p_target : Ctypes.target;
}

let find_fun p name = List.assoc_opt name p.p_funs

(* [find_fun] as a table, for callers resolving many names: built once
   per program, the first definition of a name wins as in [find_fun] *)
let fun_table p : (string, fundef) Hashtbl.t =
  let funs = Hashtbl.create 64 in
  List.iter
    (fun (name, fd) ->
      if not (Hashtbl.mem funs name) then Hashtbl.add funs name fd)
    p.p_funs;
  funs

let find_struct p name = List.assoc_opt name p.p_structs

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

(** All variables syntactically read by an expression. *)
let rec expr_vars (e : expr) (acc : VarSet.t) : VarSet.t =
  match e.edesc with
  | Eint _ | Efloat _ -> acc
  | Elval lv -> lval_vars lv acc
  | Eunop (_, a) -> expr_vars a acc
  | Ebinop (_, a, b) -> expr_vars a (expr_vars b acc)
  | Ecast (_, a) -> expr_vars a acc

and lval_vars (lv : lval) (acc : VarSet.t) : VarSet.t =
  match lv.ldesc with
  | Lvar v -> VarSet.add v acc
  | Lindex (a, i) -> lval_vars a (expr_vars i acc)
  | Lfield (a, _) -> lval_vars a acc
  | Lderef v -> VarSet.add v acc

(** Root variable of an lvalue. *)
let rec lval_root (lv : lval) : var =
  match lv.ldesc with
  | Lvar v | Lderef v -> v
  | Lindex (a, _) | Lfield (a, _) -> lval_root a

(** Size in statements, used by benchmarks reporting kLOC-like figures. *)
let rec stmt_size (s : stmt) : int =
  match s.sdesc with
  | Sif (_, a, b) -> 1 + block_size a + block_size b
  | Swhile (_, _, b) -> 1 + block_size b
  | _ -> 1

and block_size (b : block) : int = List.fold_left (fun n s -> n + stmt_size s) 0 b

let program_size (p : program) : int =
  List.fold_left (fun n (_, fd) -> n + block_size fd.fd_body) 0 p.p_funs

(** Iterate over every statement of a block, recursively. *)
let rec iter_stmts (f : stmt -> unit) (b : block) : unit =
  List.iter
    (fun s ->
      f s;
      match s.sdesc with
      | Sif (_, a, b) ->
          iter_stmts f a;
          iter_stmts f b
      | Swhile (_, _, b) -> iter_stmts f b
      | _ -> ())
    b

(** One more than the largest id among the variables the program
    declares: globals, parameters, locals and call destinations. *)
let var_id_bound (p : program) : int =
  let bound = ref 0 in
  let see v = if v.v_id >= !bound then bound := v.v_id + 1 in
  List.iter (fun (v, _) -> see v) p.p_globals;
  List.iter
    (fun (_, fd) ->
      List.iter (function Pval v | Pref v -> see v) fd.fd_params;
      iter_stmts
        (fun s ->
          match s.sdesc with
          | Slocal (v, _) | Scall (Some v, _, _) -> see v
          | _ -> ())
        fd.fd_body)
    p.p_funs;
  !bound

(** Constant integer view of an expression, if syntactically constant. *)
let rec as_const_int (e : expr) : int option =
  match e.edesc with
  | Eint n -> Some n
  | Ecast (Ctypes.Tint _, a) -> as_const_int a
  | Eunop (Neg, a) -> Option.map (fun n -> -n) (as_const_int a)
  | _ -> None
