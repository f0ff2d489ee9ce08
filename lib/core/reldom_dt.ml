(** The decision-tree domain over its boolean packs (Sect. 6.2.4, 7.2.3):
    boolean tests split or select branches, numerical tests and
    assignments refine the leaves by leaf-local interval evaluation. *)

module F = Astree_frontend
module D = Astree_domains
module T = D.Decision_tree
open F.Tast
open Reldom

type t = T.t
type pack = Packing.dt_pack

let name = "decision-tree"
let enabled (cfg : Config.t) = cfg.Config.use_decision_trees
let packs (pk : Packing.t) = pk.Packing.dts
let pack_id (dp : pack) = dp.Packing.dp_id
let packs_of (pk : Packing.t) v = Packing.packs_of pk.Packing.dt_index v
let pack_vars (dp : pack) = Array.append dp.Packing.dp_bools dp.Packing.dp_nums

let add_pack name buf (dp : pack) =
  let names vs =
    add_i64 buf (Array.length vs);
    Array.iter (fun v -> add_str buf (name v)) vs
  in
  names dp.Packing.dp_bools;
  names dp.Packing.dp_nums

let rename (dp : pack) (d : t) =
  let top = T.top dp.Packing.dp_bools dp.Packing.dp_nums in
  let bools = rename_vars ~by:top.T.bools d.T.bools
  and nums = rename_vars ~by:top.T.nums d.T.nums in
  if bools == d.T.bools && nums == d.T.nums then d
  else
    let var (v : var) =
      let rec find (from : var array) (by : var array) i =
        if i = Array.length from then None
        else if from.(i).v_id = v.v_id then Some by.(i)
        else find from by (i + 1)
      in
      match find d.T.bools bools 0 with
      | Some v' -> v'
      | None -> Option.value ~default:v (find d.T.nums nums 0)
    in
    let rec tree = function
      | T.Leaf None -> T.Leaf None
      | T.Leaf (Some m) ->
          T.Leaf
            (Some (VarMap.fold (fun v i acc -> VarMap.add (var v) i acc) m VarMap.empty))
      | T.Node (v, f, t) -> T.Node (var v, tree f, tree t)
    in
    { T.bools; nums; tree = tree d.T.tree }
let top (dp : pack) = T.top dp.Packing.dp_bools dp.Packing.dp_nums
let get (r : rel) = r.dts
let set (r : rel) dts = { r with dts }
let join = T.join
let meet = T.meet
let widen = T.widen
let narrow = T.narrow
let subset = T.subset
let equal = T.equal

(* Pull bounds out of the decision trees for each variable. *)
let writeback c ctx st (vars : var list) =
  List.fold_left
    (fun st v ->
      List.fold_left
        (fun st (dp : pack) ->
          match Ptmap.find_opt dp.Packing.dp_id (c.rel st).dts with
          | None -> st
          | Some d -> (
              if T.is_bot d then c.bottom
              else
                match T.get_num d v with
                | Some i -> c.refine ctx st v i
                | None ->
                    if Array.exists (Var.equal v) dp.Packing.dp_bools then
                      c.refine ctx st v (D.Itv.of_truth (T.get_bool d v))
                    else st))
        st
        (packs_of (c.packing ctx) v))
    st vars

let set_tree c st (dp : pack) d =
  c.with_rel st (set (c.rel st) (Ptmap.add dp.Packing.dp_id d (c.rel st).dts))

(* Evaluate an expression with a leaf-local variable hook. *)
let eval_in_leaf c ctx st binds (dp : pack) (path : (int * bool) list)
    (leaf : D.Itv.t VarMap.t) (e : expr) : D.Itv.t =
  c.eval ctx st binds
    (fun v ->
      match List.assoc_opt v.v_id path with
      | Some b -> Some (D.Itv.int_const (if b then 1 else 0))
      | None -> (
          match VarMap.find_opt v leaf with
          | Some i -> Some (D.Itv.meet i (c.var_itv ctx st v))
          | None ->
              if Array.exists (Var.equal v) dp.Packing.dp_nums then
                Some (c.var_itv ctx st v)
              else None))
    e

(* Integer casts of truth-valued expressions (0/1) are value-preserving;
   strip them so condition shapes are recognized. *)
let rec strip_bool_casts (e : expr) : expr =
  match e.edesc with
  | Ecast
      ( F.Ctypes.Tint _,
        ({ edesc = Ebinop ((Lt | Gt | Le | Ge | Eq | Ne | Land | Lor), _, _); _ }
         as inner) ) ->
      strip_bool_casts inner
  | Ecast (F.Ctypes.Tint _, ({ edesc = Eunop (Lnot, _); _ } as inner)) ->
      strip_bool_casts inner
  | _ -> e

(* Refine a leaf under [cond = truth] by backward interval refinement on
   pack numerical variables occurring in simple comparisons. *)
let refine_leaf c ctx st binds (dp : pack) path (cond : expr) (truth : bool)
    (leaf : D.Itv.t VarMap.t) : D.Itv.t VarMap.t option =
  let cond = strip_bool_casts cond in
  (* quick unsatisfiability check *)
  let can_f, can_t = D.Itv.truth (eval_in_leaf c ctx st binds dp path leaf cond) in
  if (truth && not can_t) || ((not truth) && not can_f) then None
  else
    (* refine x for conditions (x cmp e) / (e cmp x) with x a pack num *)
    let refine_one (x : var) (op : binop) (other : expr) (x_on_left : bool)
        (leaf : D.Itv.t VarMap.t) : D.Itv.t VarMap.t option =
      if not (Array.exists (Var.equal x) dp.Packing.dp_nums) then Some leaf
      else begin
        let base =
          match VarMap.find_opt x leaf with
          | Some i -> D.Itv.meet i (c.var_itv ctx st x)
          | None -> c.var_itv ctx st x
        in
        let io = eval_in_leaf c ctx st binds dp path leaf other in
        let op = if x_on_left then op else swap_cmp op in
        let op = if truth then op else negate_cmp op in
        let refined = refine_cmp op base io in
        if D.Itv.is_bot refined then None
        else Some (VarMap.add x refined leaf)
      end
    in
    let var_of (e : expr) =
      match e.edesc with
      | Elval { ldesc = Lvar x; _ }
      | Ecast (_, { edesc = Elval { ldesc = Lvar x; _ }; _ }) ->
          Some x
      | _ -> None
    in
    match cond.edesc with
    | Ebinop ((Lt | Gt | Le | Ge | Eq | Ne) as op, l, r) -> (
        let leaf' =
          match var_of l with
          | Some x -> refine_one x op r true leaf
          | None -> Some leaf
        in
        match (leaf', var_of r) with
        | Some leaf', Some x -> refine_one x op l false leaf'
        | leaf', _ -> leaf')
    | _ -> Some leaf

(* Is the condition a (possibly negated) boolean variable test?  After
   elaboration these have the shape (b != 0), (b == 0) or !(...). *)
let rec as_bool_var_test (e : expr) : (var * bool) option =
  match e.edesc with
  | Elval { ldesc = Lvar b; _ } when F.Ctypes.is_bool b.v_ty -> Some (b, true)
  | Ebinop (Ne, { edesc = Elval { ldesc = Lvar b; _ }; _ }, { edesc = Eint 0; _ })
    when F.Ctypes.is_bool b.v_ty ->
      Some (b, true)
  | Ebinop (Eq, { edesc = Elval { ldesc = Lvar b; _ }; _ }, { edesc = Eint 0; _ })
    when F.Ctypes.is_bool b.v_ty ->
      Some (b, false)
  | Eunop (Lnot, inner) ->
      Option.map (fun (b, v) -> (b, not v)) (as_bool_var_test inner)
  | _ -> None

let write_nums c ctx st (dp : pack) =
  writeback c ctx st (Array.to_list dp.Packing.dp_nums)

let guard c ctx st binds (cond : expr) truth =
  let pk = c.packing ctx in
  match as_bool_var_test cond with
  | Some (b, pos) ->
      let value = if truth then pos else not pos in
      let st, changed =
        List.fold_left
          (fun (st, changed) (dp : pack) ->
            match Ptmap.find_opt dp.Packing.dp_id (c.rel st).dts with
            | None -> (st, changed)
            | Some d -> (set_tree c st dp (T.guard_bool d b value), dp :: changed))
          (st, []) (packs_of pk b)
      in
      (* write back bounds for the numerical variables of changed packs *)
      List.fold_left (fun st dp -> write_nums c ctx st dp) st changed
  | None -> (
      match cond.edesc with
      | Ebinop ((Lt | Gt | Le | Ge | Eq | Ne), _, _) ->
          VarSet.elements (expr_vars cond VarSet.empty)
          |> List.filter (fun v -> F.Ctypes.is_scalar v.v_ty)
          |> List.concat_map (packs_of pk)
          |> List.sort_uniq (fun (x : pack) y ->
                 Int.compare x.Packing.dp_id y.Packing.dp_id)
          |> List.fold_left
               (fun st (dp : pack) ->
                 match Ptmap.find_opt dp.Packing.dp_id (c.rel st).dts with
                 | None -> st
                 | Some d ->
                     let d' =
                       T.guard_num d (fun path leaf ->
                           match leaf with
                           | None -> None
                           | Some m ->
                               refine_leaf c ctx st binds dp path cond truth m)
                     in
                     write_nums c ctx (set_tree c st dp d') dp)
               st
      | _ -> st)

(* The leaves evaluate [rhs] in [pre], the state before the write: the
   leaf value of [x] is the old one, and so must be the interval it is
   met with. *)
let assign c ctx ~pre st binds x rhs _rhs_itv =
  match packs_of (c.packing ctx) x with
  | [] -> st
  | packs ->
      let dts =
        List.fold_left
          (fun dts (dp : pack) ->
            match Ptmap.find_opt dp.Packing.dp_id dts with
            | None -> dts
            | Some d ->
                let d' =
                  if Array.exists (Var.equal x) dp.Packing.dp_bools then
                    (* boolean assignment: split each leaf on the truth of
                       the rhs *)
                    T.assign_bool_split d x (fun path leaf ->
                        match leaf with
                        | None -> (None, None)
                        | Some m ->
                            ( refine_leaf c ctx pre binds dp path rhs true m,
                              refine_leaf c ctx pre binds dp path rhs false m ))
                  else
                    T.assign_num d x (fun path leaf ->
                        match leaf with
                        | None -> D.Itv.Bot
                        | Some m -> eval_in_leaf c ctx pre binds dp path m rhs)
                in
                Ptmap.add dp.Packing.dp_id d' dts)
          (c.rel st).dts packs
      in
      writeback c ctx (c.with_rel st (set (c.rel st) dts)) [ x ]

let relates (pk : Packing.t) (vars : var list) =
  List.exists (fun v -> packs_of pk v <> []) vars

let census _ (d : t) = [ ("decision_trees", T.count_assertions d) ]

let digest buf (d : t) =
  let { T.bools; nums; tree = root } = d in
  add_i64 buf (Array.length bools);
  add_i64 buf (Array.length nums);
  let rec tree = function
    | T.Leaf None -> Buffer.add_char buf 'n'
    | T.Leaf (Some m) ->
        Buffer.add_char buf 'l';
        add_i64 buf (VarMap.cardinal m);
        VarMap.iter
          (fun v i ->
            add_pos buf nums v;
            add_itv buf i)
          m
    | T.Node (v, f, t) ->
        Buffer.add_char buf 'N';
        add_pos buf bools v;
        tree f;
        tree t
  in
  tree root

let same (x : t) (y : t) =
  let rec tree t u =
    t == u
    ||
    match (t, u) with
    | T.Leaf None, T.Leaf None -> true
    | T.Leaf (Some m), T.Leaf (Some n) -> VarMap.equal same_itv m n
    | T.Node (v, f, t), T.Node (w, g, u) -> Var.equal v w && tree f g && tree t u
    | _ -> false
  in
  x == y
  ||
  let { T.bools; nums; tree = root } = x in
  Array.length bools = Array.length y.T.bools
  && Array.length nums = Array.length y.T.nums
  && tree root y.T.tree

let pp ppf pid d =
  if T.size d > 1 then Fmt.pf ppf "decision tree #%d:@.%a@." pid T.pp d
