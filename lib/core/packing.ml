(** Parametrized packing (Sect. 7.2).

    Relational domains cannot be applied to all global variables
    simultaneously; the analyzer determines, once and for all before the
    analysis starts, small packs of variables:

    - octagon packs (7.2.1): one pack per syntactic block, containing the
      variables that appear in a linear assignment or test within the
      block (ignoring sub-blocks);
    - ellipsoid packs: one per digital-filter assignment
      [x := a*y - b*z + t] with 0 < b < 1 and a^2 < 4b (Sect. 6.2.3);
    - decision-tree packs (7.2.3): tentative packs from boolean/numeric
      interaction, confirmed when a numerical assignment is found under a
      branch depending on the boolean, with a hard bound on the number of
      booleans per pack. *)

module F = Astree_frontend
open F.Tast

type oct_pack = { op_id : int; op_vars : var array }

(* a scan: a pack holds at most [max_octagon_pack] variables *)
let op_mem (op : oct_pack) (v : var) : bool =
  Array.exists (fun w -> w.v_id = v.v_id) op.op_vars

type ell_pack = {
  ep_id : int;
  ep_a : float;
  ep_b : float;
  ep_fkind : F.Ctypes.fkind;
  ep_vars : var array;
  ep_x : var;  (** the filter output X' *)
  ep_y : var;  (** the filter state X *)
  ep_z : var;  (** the filter state Y *)
}

type dt_pack = { dp_id : int; dp_bools : var array; dp_nums : var array }

type 'p index = 'p list array

type t = {
  octs : oct_pack list;
  ells : ell_pack list;
  dts : dt_pack list;
  oct_index : oct_pack index;
  ell_index : ell_pack index;
  dt_index : dt_pack index;
}

(* variable id (never negative) -> the packs containing it, later packs
   first; the array ends at the largest id of a pack variable *)
let index (vars : 'p -> var array) (packs : 'p list) : 'p index =
  let bound =
    List.fold_left
      (fun b p -> Array.fold_left (fun b v -> max b (v.v_id + 1)) b (vars p))
      0 packs
  in
  let idx = Array.make bound [] in
  List.iter
    (fun p -> Array.iter (fun v -> idx.(v.v_id) <- p :: idx.(v.v_id)) (vars p))
    packs;
  idx

let packs_of (idx : 'p index) (v : var) : 'p list =
  let id = v.v_id in
  if id >= 0 && id < Array.length idx then Array.unsafe_get idx id else []

let make octs ells dts =
  {
    octs;
    ells;
    dts;
    oct_index = index (fun op -> op.op_vars) octs;
    ell_index = index (fun ep -> ep.ep_vars) ells;
    dt_index = index (fun dp -> Array.append dp.dp_bools dp.dp_nums) dts;
  }

(* ------------------------------------------------------------------ *)
(* Syntactic linear forms (constant coefficients)                      *)
(* ------------------------------------------------------------------ *)

(* The table [syntactic_linear] merges duplicate variables in, reused
   across calls: it runs on every clock-aware and every ellipsoid-pack
   assignment.  [Hashtbl.reset] restores the initial size, so the fold
   order, which [Reldom_ell.assign_filter] sums the terms in with outward
   rounding, is that of a fresh table.  One global table is safe because
   no analysis runs on a second domain or thread: parallel runs fork
   worker processes. *)
let merge_tbl : (int, var * float) Hashtbl.t = Hashtbl.create 8

(** [syntactic_linear e] returns [Some (terms, const_bound)] when [e] is
    a +,-,* combination of scalar variables and constants; coefficients
    are exact floats.  Non-linear sub-expressions make the whole
    extraction fail. *)
let syntactic_linear (e : expr) : ((var * float) list * float) option =
  let rec go (e : expr) : ((var * float) list * float) option =
    match e.edesc with
    | Eint n -> Some ([], float_of_int n)
    | Efloat f -> Some ([], f)
    | Elval { ldesc = Lvar v; _ } when F.Ctypes.is_scalar v.v_ty ->
        Some ([ (v, 1.0) ], 0.0)
    | Eunop (Neg, a) ->
        Option.map
          (fun (ts, c) -> (List.map (fun (v, k) -> (v, -.k)) ts, -.c))
          (go a)
    | Ebinop (Add, a, b) -> (
        match (go a, go b) with
        | Some (ta, ca), Some (tb, cb) -> Some (ta @ tb, ca +. cb)
        | _ -> None)
    | Ebinop (Sub, a, b) -> (
        match (go a, go b) with
        | Some (ta, ca), Some (tb, cb) ->
            Some (ta @ List.map (fun (v, k) -> (v, -.k)) tb, ca -. cb)
        | _ -> None)
    | Ebinop (Mul, a, b) -> (
        match (go a, go b) with
        | Some ([], ka), Some (tb, cb) ->
            Some (List.map (fun (v, k) -> (v, ka *. k)) tb, ka *. cb)
        | Some (ta, ca), Some ([], kb) ->
            Some (List.map (fun (v, k) -> (v, k *. kb)) ta, ca *. kb)
        | _ -> None)
    | Ecast (s, a) ->
        (* only kind-preserving casts keep the form linear; an int<->float
           conversion truncates or rounds *)
        let same_class =
          match (s, a.ety) with
          | F.Ctypes.Tint _, F.Ctypes.Tint _ -> true
          | F.Ctypes.Tfloat _, F.Ctypes.Tfloat _ -> true
          | _ -> false
        in
        if same_class then go a else None
    | _ -> None
  in
  match go e with
  | Some (terms, c) ->
      (* merge duplicate variables *)
      let tbl = merge_tbl in
      Hashtbl.reset tbl;
      List.iter
        (fun (v, k) ->
          let cur = Option.value (Hashtbl.find_opt tbl v.v_id) ~default:(v, 0.0) in
          Hashtbl.replace tbl v.v_id (v, snd cur +. k))
        terms;
      let merged =
        Hashtbl.fold (fun _ (v, k) acc -> if k = 0.0 then acc else (v, k) :: acc)
          tbl []
      in
      Some (merged, c)
  | None -> None

let is_linear_expr e = syntactic_linear e <> None

(* Variables of an expression, scalars only. *)
let scalar_vars (e : expr) : var list =
  VarSet.elements (expr_vars e VarSet.empty)
  |> List.filter (fun v -> F.Ctypes.is_scalar v.v_ty)

let is_bool_var (v : var) = F.Ctypes.is_bool v.v_ty

let is_num_var (v : var) =
  F.Ctypes.is_scalar v.v_ty && not (is_bool_var v)

(* ------------------------------------------------------------------ *)
(* Octagon packing (7.2.1)                                             *)
(* ------------------------------------------------------------------ *)

let octagon_packs ~(max_pack : int) (p : program) : oct_pack list =
  let packs = ref [] in
  let next = ref 0 in
  let add_pack (vars : var list) =
    (* numeric variables only, deduplicated, small *)
    let vars =
      List.sort_uniq Var.compare (List.filter is_num_var vars)
    in
    let vars = List.filteri (fun i _ -> i < max_pack) vars in
    if List.length vars >= 2 then begin
      let arr = Array.of_list vars in
      (* skip duplicates of an existing pack *)
      let dup =
        List.exists
          (fun op ->
            Array.length op.op_vars = Array.length arr
            && Array.for_all2 Var.equal op.op_vars arr)
          !packs
      in
      if not dup then begin
        packs := { op_id = !next; op_vars = arr } :: !packs;
        incr next
      end
    end
  in
  (* one pack per syntactic block: collect variables of linear
     assignments and of linear test conditions at that block's level,
     ignoring what happens in sub-blocks *)
  let rec do_block (b : block) : unit =
    let here = ref [] in
    List.iter
      (fun (s : stmt) ->
        match s.sdesc with
        | Sassign ({ ldesc = Lvar x; _ }, e) when is_num_var x ->
            if is_linear_expr e then here := x :: scalar_vars e @ !here
        | Slocal (x, Some e) when is_num_var x ->
            if is_linear_expr e then here := x :: scalar_vars e @ !here
        | Sif (c, a, b') ->
            (match c.edesc with
            | Ebinop ((Lt | Gt | Le | Ge | Eq | Ne), l, r)
              when is_linear_expr l && is_linear_expr r ->
                here := scalar_vars c @ !here
            | _ -> ());
            do_block a;
            do_block b'
        | Swhile (_, c, body) ->
            (match c.edesc with
            | Ebinop ((Lt | Gt | Le | Ge | Eq | Ne), l, r)
              when is_linear_expr l && is_linear_expr r ->
                here := scalar_vars c @ !here
            | _ -> ());
            do_block body
        | _ -> ())
      b;
    add_pack !here
  in
  List.iter (fun (_, fd) -> do_block fd.fd_body) p.p_funs;
  List.rev !packs

(* ------------------------------------------------------------------ *)
(* Ellipsoid packing (6.2.3)                                           *)
(* ------------------------------------------------------------------ *)

let ellipsoid_packs (p : program) : ell_pack list =
  let packs = ref [] in
  let next = ref 0 in
  let consider (x : var) (e : expr) =
    match (x.v_ty, syntactic_linear e) with
    | F.Ctypes.Tscalar (F.Ctypes.Tfloat fk), Some (terms, _c) -> (
        (* looking for x := a.y - b.z + t where t may itself contain
           other variables: accept 2 principal terms with the remaining
           terms folded into t *)
        match terms with
        | _ when List.length terms < 2 -> ()
        | terms ->
            (* try all ordered pairs (y |-> a, z |-> -b); keep only pairs
               satisfying the conditions of Prop. 1 and prefer the pair
               with the largest |a| (the actual filter feedback term) *)
            let candidates = ref [] in
            List.iter
              (fun (y, a) ->
                List.iter
                  (fun (z, nb) ->
                    let b = -.nb in
                    if
                      (not (Var.equal y z))
                      && (not (Var.equal x y))
                      && (not (Var.equal x z))
                      && Astree_domains.Ellipsoid.valid_coeffs ~a ~b
                    then candidates := (y, a, z, b) :: !candidates)
                  terms)
              terms;
            (* keep every valid candidate pair: only the pair matching the
               actual filter recurrence will accumulate a stable ellipse,
               the others stay at top, which is sound *)
            List.iter
              (fun (y, a, z, b) ->
                let dup =
                  List.exists
                    (fun ep ->
                      ep.ep_a = a && ep.ep_b = b && Var.equal ep.ep_x x
                      && Var.equal ep.ep_y y && Var.equal ep.ep_z z)
                    !packs
                in
                if not dup then begin
                  let vars =
                    List.sort_uniq Var.compare [ x; y; z ] |> Array.of_list
                  in
                  packs :=
                    {
                      ep_id = !next;
                      ep_a = a;
                      ep_b = b;
                      ep_fkind = fk;
                      ep_vars = vars;
                      ep_x = x;
                      ep_y = y;
                      ep_z = z;
                    }
                    :: !packs;
                  incr next
                end)
              (List.rev !candidates))
    | _ -> ()
  in
  List.iter
    (fun (_, fd) ->
      iter_stmts
        (fun s ->
          match s.sdesc with
          | Sassign ({ ldesc = Lvar x; _ }, e) -> consider x e
          | Slocal (x, Some e) -> consider x e
          | _ -> ())
        fd.fd_body)
    p.p_funs;
  List.rev !packs

(* ------------------------------------------------------------------ *)
(* Decision-tree packing (7.2.3)                                       *)
(* ------------------------------------------------------------------ *)

type mutable_dt = {
  mutable bools : VarSet.t;
  mutable nums : VarSet.t;
  mutable confirmed : bool;
}

let decision_tree_packs ~(max_bools : int) ~(max_nums : int) (p : program) :
    dt_pack list =
  let packs : mutable_dt list ref = ref [] in
  let new_pack bools nums =
    packs := { bools; nums; confirmed = false } :: !packs
  in
  (* pass 1: tentative packs from boolean/numeric interactions *)
  List.iter
    (fun (_, fd) ->
      iter_stmts
        (fun s ->
          match s.sdesc with
          | Sassign ({ ldesc = Lvar x; _ }, e) | Slocal (x, Some e) ->
              let vs = scalar_vars e in
              let bools_in_e = List.filter is_bool_var vs in
              let nums_in_e = List.filter is_num_var vs in
              if is_bool_var x && nums_in_e <> [] then
                (* boolean depends on numeric *)
                new_pack (VarSet.of_list [ x ])
                  (VarSet.of_list
                     (List.filteri (fun i _ -> i < max_nums) nums_in_e))
              else if is_num_var x && bools_in_e <> [] then
                new_pack (VarSet.of_list bools_in_e) (VarSet.of_list [ x ])
              else if is_bool_var x && bools_in_e <> [] then
                (* complex boolean dependences: add x to all packs
                   containing a variable of e *)
                List.iter
                  (fun pk ->
                    if
                      List.exists (fun b -> VarSet.mem b pk.bools) bools_in_e
                      && VarSet.cardinal pk.bools < max_bools
                    then pk.bools <- VarSet.add x pk.bools)
                  !packs
          | _ -> ())
        fd.fd_body)
    p.p_funs;
  (* pass 2: confirmation — a numerical assignment inside a branch
     depending on a pack boolean *)
  let rec walk (guard_bools : VarSet.t) (b : block) : unit =
    List.iter
      (fun (s : stmt) ->
        let confirm_used (used : VarSet.t) =
          if not (VarSet.is_empty guard_bools) then
            List.iter
              (fun pk ->
                if
                  VarSet.exists (fun x -> VarSet.mem x pk.nums) used
                  && VarSet.exists (fun b -> VarSet.mem b guard_bools) pk.bools
                then pk.confirmed <- true)
              !packs
        in
        match s.sdesc with
        | Sassign (lv, e) ->
            confirm_used (expr_vars e (lval_vars lv VarSet.empty))
        | Slocal (_, Some e) -> confirm_used (expr_vars e VarSet.empty)
        | Sif (c, a, b') ->
            let cond_bools =
              VarSet.of_list (List.filter is_bool_var (scalar_vars c))
            in
            let inner = VarSet.union guard_bools cond_bools in
            walk inner a;
            walk inner b'
        | Swhile (_, _, body) -> walk guard_bools body
        | _ -> ())
      b
  in
  List.iter (fun (_, fd) -> walk VarSet.empty fd.fd_body) p.p_funs;
  (* keep confirmed packs, bounded, deduplicated *)
  let confirmed = List.filter (fun pk -> pk.confirmed) !packs in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let next = ref 0 in
  List.iter
    (fun pk ->
      let bools =
        VarSet.elements pk.bools |> List.filteri (fun i _ -> i < max_bools)
      in
      let nums =
        VarSet.elements pk.nums |> List.filteri (fun i _ -> i < max_nums)
      in
      let key =
        ( List.map (fun v -> v.v_id) bools,
          List.map (fun v -> v.v_id) nums )
      in
      if bools <> [] && nums <> [] && not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out :=
          {
            dp_id = !next;
            dp_bools = Array.of_list bools;
            dp_nums = Array.of_list nums;
          }
          :: !out;
        incr next
      end)
    confirmed;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Determine all packs for a program under a configuration.  When
    [cfg.useful_packs_only] is set, octagon packs not in the useful list
    are dropped (Sect. 7.2.2: "it is perfectly safe to use a list of
    useful packs output by a previous analysis"). *)
let compute (cfg : Config.t) (p : program) : t =
  let octs =
    if cfg.Config.use_octagons then
      octagon_packs ~max_pack:cfg.Config.max_octagon_pack p
    else []
  in
  let octs =
    match cfg.Config.useful_packs_only with
    | Some (_tag, ids) -> List.filter (fun op -> List.mem op.op_id ids) octs
    | None -> octs
  in
  let ells = if cfg.Config.use_ellipsoids then ellipsoid_packs p else [] in
  let dts =
    if cfg.Config.use_decision_trees then
      decision_tree_packs ~max_bools:cfg.Config.max_dtree_bools
        ~max_nums:cfg.Config.max_dtree_nums p
    else []
  in
  (* multi-task interference: a variable another task may overwrite
     between any two statements cannot soundly carry relational
     invariants across statements, so packs touching a shared variable
     are dropped — reads of shared variables stay sound through the
     interval join with the rely set in [Transfer.cell_itv] *)
  let octs, ells, dts =
    match cfg.Config.conc_shared with
    | [] -> (octs, ells, dts)
    | shared ->
        let is_shared (v : var) = List.mem v.v_name shared in
        ( List.filter
            (fun op -> not (Array.exists is_shared op.op_vars))
            octs,
          List.filter
            (fun ep -> not (Array.exists is_shared ep.ep_vars))
            ells,
          List.filter
            (fun dp ->
              (not (Array.exists is_shared dp.dp_bools))
              && not (Array.exists is_shared dp.dp_nums))
            dts )
  in
  (* degradation ladder (Astree_robust.Degrade): keep only packs of at
     most [k] variables.  Dropping a pack loses precision but never
     soundness — relational invariants are a refinement of the interval
     environment, which is always maintained *)
  match cfg.Config.shed_packs_above with
  | None -> make octs ells dts
  | Some k ->
      make
        (List.filter (fun op -> Array.length op.op_vars <= k) octs)
        (List.filter (fun ep -> Array.length ep.ep_vars <= k) ells)
        (List.filter
           (fun dp -> Array.length dp.dp_bools + Array.length dp.dp_nums <= k)
           dts)

let stats (t : t) : string =
  Fmt.str "octagon packs: %d, ellipsoid packs: %d, decision-tree packs: %d"
    (List.length t.octs) (List.length t.ells) (List.length t.dts)
