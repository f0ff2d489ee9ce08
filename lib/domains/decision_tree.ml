(** The decision tree abstract domain (Sect. 6.2.4): a simple relational
    domain relating boolean variables to numerical variables.

    A pack holds an ordered list of boolean variables b_1 < ... < b_m
    (ordered as in BDDs [6]) and a set of numerical variables.  An
    abstract element is a binary decision tree branching on the booleans
    in order, whose leaves carry one interval per numerical variable of
    the pack (the generic "arithmetic abstract domain at the leaves" —
    "in practice, the interval domain was sufficient").  Subtrees equal
    on both branches are shared opportunistically (collapsed). *)

module F = Astree_frontend
module VarMap = F.Tast.VarMap

(** Leaf environment: intervals for the pack's numerical variables.
    [None] means the whole leaf is unreachable (bottom). *)
type leaf = Itv.t VarMap.t option

type tree =
  | Leaf of leaf
  | Node of F.Tast.var * tree * tree  (** boolean var, false-branch, true-branch *)

type t = {
  bools : F.Tast.var array;     (** pack booleans, branch order *)
  nums : F.Tast.var array;      (** pack numerical variables *)
  tree : tree;
}

(* ------------------------------------------------------------------ *)
(* Construction and normalization                                      *)
(* ------------------------------------------------------------------ *)

let leaf_equal (a : leaf) (b : leaf) : bool =
  match (a, b) with
  | None, None -> true
  | Some ma, Some mb -> VarMap.equal Itv.equal ma mb
  | _ -> false

let rec tree_equal (a : tree) (b : tree) : bool =
  a == b
  ||
  match (a, b) with
  | Leaf la, Leaf lb -> leaf_equal la lb
  | Node (va, fa, ta), Node (vb, fb, tb) ->
      F.Tast.Var.equal va vb && tree_equal fa fb && tree_equal ta tb
  | _ -> false

(* Collapse a node whose branches are equal (opportunistic sharing). *)
let mk_node v f t = if tree_equal f t then f else Node (v, f, t)

(* The branch order must be consistent between [tree_branch] (pack rank)
   and [tree_map2] (variable id): we canonicalize packs by sorting the
   boolean variables by id, which makes the two orders coincide. *)
let sort_pack (a : F.Tast.var array) : F.Tast.var array =
  let a = Array.copy a in
  Array.sort F.Tast.Var.compare a;
  a

let top (bools : F.Tast.var array) (nums : F.Tast.var array) : t =
  { bools = sort_pack bools; nums; tree = Leaf (Some VarMap.empty) }

let bottom (bools : F.Tast.var array) (nums : F.Tast.var array) : t =
  { bools = sort_pack bools; nums; tree = Leaf None }

let rec tree_is_bot = function
  | Leaf None -> true
  | Leaf (Some _) -> false
  | Node (_, f, t) -> tree_is_bot f && tree_is_bot t

let is_bot (d : t) = tree_is_bot d.tree

let mem_bool (d : t) v = Array.exists (F.Tast.Var.equal v) d.bools
let mem_num (d : t) v = Array.exists (F.Tast.Var.equal v) d.nums

let bool_rank (d : t) (v : F.Tast.var) : int =
  let n = Array.length d.bools in
  let rec go i =
    if i >= n then max_int
    else if F.Tast.Var.equal d.bools.(i) v then i
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Pointwise combination                                               *)
(* ------------------------------------------------------------------ *)

let leaf_join (a : leaf) (b : leaf) : leaf =
  match (a, b) with
  | None, x | x, None -> x
  | Some ma, Some mb ->
      (* missing entries are top: the join keeps only entries present in
         both maps *)
      Some
        (VarMap.merge
           (fun _ ia ib ->
             match (ia, ib) with
             | Some ia, Some ib ->
                 let j = Itv.join ia ib in
                 Some j
             | _ -> None)
           ma mb)

let leaf_meet (a : leaf) (b : leaf) : leaf =
  match (a, b) with
  | None, _ | _, None -> None
  | Some ma, Some mb ->
      let m =
        VarMap.merge
          (fun _ ia ib ->
            match (ia, ib) with
            | Some ia, Some ib -> Some (Itv.meet ia ib)
            | Some i, None | None, Some i -> Some i
            | None, None -> None)
          ma mb
      in
      if VarMap.exists (fun _ i -> Itv.is_bot i) m then None else Some m

let leaf_widen ~thresholds (a : leaf) (b : leaf) : leaf =
  match (a, b) with
  | None, x | x, None -> x
  | Some ma, Some mb ->
      Some
        (VarMap.merge
           (fun _ ia ib ->
             match (ia, ib) with
             | Some ia, Some ib -> Some (Itv.widen ~thresholds ia ib)
             | _ -> None)
           ma mb)

let leaf_narrow (a : leaf) (b : leaf) : leaf =
  match (a, b) with
  | None, _ -> None
  | x, None -> x
  | Some ma, Some mb ->
      Some
        (VarMap.merge
           (fun _ ia ib ->
             match (ia, ib) with
             | Some ia, Some ib -> Some (Itv.narrow ia ib)
             | Some i, None -> Some i
             | None, Some _ -> None
             | None, None -> None)
           ma mb)

let leaf_subset (a : leaf) (b : leaf) : bool =
  match (a, b) with
  | None, _ -> true
  | Some _, None -> false
  | Some ma, Some mb ->
      VarMap.for_all
        (fun v ib ->
          match VarMap.find_opt v ma with
          | Some ia -> Itv.subset ia ib
          | None -> false (* a unconstrained, b constrained *))
        mb

(* Generic structural merge of two trees with the same variable order. *)
let rec tree_map2 (f : leaf -> leaf -> leaf) (a : tree) (b : tree) : tree =
  if a == b then a
  else
    match (a, b) with
    | Leaf la, Leaf lb -> Leaf (f la lb)
    | Node (v, fa, ta), Leaf _ -> mk_node v (tree_map2 f fa b) (tree_map2 f ta b)
    | Leaf _, Node (v, fb, tb) -> mk_node v (tree_map2 f a fb) (tree_map2 f a tb)
    | Node (va, fa, ta), Node (vb, fb, tb) ->
        let ca = va.F.Tast.v_id and cb = vb.F.Tast.v_id in
        if ca = cb then mk_node va (tree_map2 f fa fb) (tree_map2 f ta tb)
        else if ca < cb then mk_node va (tree_map2 f fa b) (tree_map2 f ta b)
        else mk_node vb (tree_map2 f a fb) (tree_map2 f a tb)

let join (a : t) (b : t) : t = { a with tree = tree_map2 leaf_join a.tree b.tree }

let meet (a : t) (b : t) : t = { a with tree = tree_map2 leaf_meet a.tree b.tree }

let widen ~thresholds (a : t) (b : t) : t =
  { a with tree = tree_map2 (leaf_widen ~thresholds) a.tree b.tree }

let narrow (a : t) (b : t) : t =
  { a with tree = tree_map2 leaf_narrow a.tree b.tree }

let rec tree_subset (a : tree) (b : tree) : bool =
  if a == b then true
  else
    match (a, b) with
    | Leaf la, Leaf lb -> leaf_subset la lb
    | Node (_, fa, ta), Leaf _ -> tree_subset fa b && tree_subset ta b
    | Leaf _, Node (_, fb, tb) -> tree_subset a fb && tree_subset a tb
    | Node (va, fa, ta), Node (vb, fb, tb) ->
        let ca = va.F.Tast.v_id and cb = vb.F.Tast.v_id in
        if ca = cb then tree_subset fa fb && tree_subset ta tb
        else if ca < cb then tree_subset fa b && tree_subset ta b
        else tree_subset a fb && tree_subset a tb

let subset (a : t) (b : t) : bool = tree_subset a.tree b.tree

let equal (a : t) (b : t) : bool = tree_equal a.tree b.tree

(* ------------------------------------------------------------------ *)
(* Per-leaf transformations                                            *)
(* ------------------------------------------------------------------ *)

(** Apply [f] to every leaf, giving it the path (boolean valuation so
    far).  The path maps boolean var ids to their forced value. *)
let map_leaves_with_path (f : (int * bool) list -> leaf -> leaf) (d : t) : t =
  let rec go path = function
    | Leaf l -> Leaf (f (List.rev path) l)
    | Node (v, fb, tb) ->
        mk_node v
          (go ((v.F.Tast.v_id, false) :: path) fb)
          (go ((v.F.Tast.v_id, true) :: path) tb)
  in
  { d with tree = go [] d.tree }

let map_leaves (f : leaf -> leaf) (d : t) : t =
  map_leaves_with_path (fun _ l -> f l) d

(* Insert a branch on boolean [v] (pack order respected) applying
   [on_false]/[on_true] to the corresponding restrictions of the tree. *)
let rec tree_branch (rank : F.Tast.var -> int) (v : F.Tast.var)
    (on_false : tree -> tree) (on_true : tree -> tree) (t : tree) : tree =
  match t with
  | Node (w, fb, tb) when F.Tast.Var.equal w v ->
      mk_node v (on_false fb) (on_true tb)
  | Node (w, fb, tb) when rank w < rank v ->
      mk_node w
        (tree_branch rank v on_false on_true fb)
        (tree_branch rank v on_false on_true tb)
  | t ->
      (* v does not appear yet: split here *)
      mk_node v (on_false t) (on_true t)

(* ------------------------------------------------------------------ *)
(* Transfer functions                                                  *)
(* ------------------------------------------------------------------ *)

(** Guard: restrict to the branches where pack boolean [v] = [value]. *)
let guard_bool (d : t) (v : F.Tast.var) (value : bool) : t =
  if not (mem_bool d v) then d
  else
    let kill = Leaf None in
    let rank w = bool_rank d w in
    {
      d with
      tree =
        tree_branch rank v
          (fun t -> if value then kill else t)
          (fun t -> if value then t else kill)
          d.tree;
    }

(** Assignment of a boolean variable to a known truth value along each
    path: [b := value].  The new tree forgets b's previous branching and
    forces the branch. *)
let assign_bool_const (d : t) (v : F.Tast.var) (value : bool) : t =
  if not (mem_bool d v) then d
  else begin
    (* merge b's branches (forget), then force the branch *)
    let rec forget_b = function
      | Node (w, fb, tb) when F.Tast.Var.equal w v -> tree_map2 leaf_join fb tb
      | Node (w, fb, tb) -> mk_node w (forget_b fb) (forget_b tb)
      | Leaf _ as l -> l
    in
    let merged = forget_b d.tree in
    let kill = Leaf None in
    let rank w = bool_rank d w in
    {
      d with
      tree =
        tree_branch rank v
          (fun t -> if value then kill else t)
          (fun t -> if value then t else kill)
          merged;
    }
  end

(** Assignment [b := cond] where the truth of [cond] may *split* a leaf:
    [split path leaf] returns the pair (leaf restricted to cond true,
    leaf restricted to cond false); each part is routed to the matching
    branch of b.  This is how [B := (X == 0)] records X's refinement in
    both branches (the paper's Sect. 6.2.4 example). *)
let assign_bool_split (d : t) (v : F.Tast.var)
    (split : (int * bool) list -> leaf -> leaf * leaf) : t =
  if not (mem_bool d v) then d
  else begin
    let rank w = bool_rank d w in
    let rec forget_b = function
      | Node (w, fb, tb) when F.Tast.Var.equal w v -> tree_map2 leaf_join fb tb
      | Node (w, fb, tb) -> mk_node w (forget_b fb) (forget_b tb)
      | Leaf _ as l -> l
    in
    let merged = forget_b d.tree in
    let rec route path = function
      | Node (w, fb, tb) ->
          mk_node w
            (route ((w.F.Tast.v_id, false) :: path) fb)
            (route ((w.F.Tast.v_id, true) :: path) tb)
      | Leaf l ->
          let lt, lf = split (List.rev path) l in
          tree_branch rank v (fun _ -> Leaf lf) (fun _ -> Leaf lt) (Leaf l)
    in
    { d with tree = route [] merged }
  end

(** Assignment of a numerical pack variable: [x := e] evaluated per leaf
    via [eval path leaf], which returns the new interval for x in that
    context. *)
let assign_num (d : t) (x : F.Tast.var)
    (eval : (int * bool) list -> leaf -> Itv.t) : t =
  if not (mem_num d x) then d
  else
    map_leaves_with_path
      (fun path l ->
        match l with
        | None -> None
        | Some m ->
            let i = eval path l in
            if Itv.is_bot i then None else Some (VarMap.add x i m))
      d

(** Guard on a numerical condition: [refine path leaf] returns the
    refined leaf (or None if the condition is unsatisfiable there). *)
let guard_num (d : t) (refine : (int * bool) list -> leaf -> leaf) : t =
  map_leaves_with_path refine d

(** Forget all knowledge about a numerical variable. *)
let forget_num (d : t) (x : F.Tast.var) : t =
  map_leaves
    (function None -> None | Some m -> Some (VarMap.remove x m))
    d

(** Forget a boolean variable (e.g. assigned an unknown value). *)
let forget_bool (d : t) (v : F.Tast.var) : t =
  if not (mem_bool d v) then d
  else
    let rec forget_b = function
      | Node (w, fb, tb) when F.Tast.Var.equal w v -> tree_map2 leaf_join fb tb
      | Node (w, fb, tb) -> mk_node w (forget_b fb) (forget_b tb)
      | Leaf _ as l -> l
    in
    { d with tree = forget_b d.tree }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(** Overall interval of a pack numerical variable (join over leaves). *)
let get_num (d : t) (x : F.Tast.var) : Itv.t option =
  if not (mem_num d x) then None
  else begin
    let acc = ref Itv.Bot in
    let found = ref true in
    let rec go = function
      | Leaf None -> ()
      | Leaf (Some m) -> (
          match VarMap.find_opt x m with
          | Some i -> acc := (if Itv.is_bot !acc then i else Itv.join !acc i)
          | None -> found := false)
      | Node (_, f, t) ->
          go f;
          go t
    in
    go d.tree;
    if !found && not (Itv.is_bot !acc) then Some !acc else None
  end

(** Possible truth values of a pack boolean: (can_be_false, can_be_true). *)
let get_bool (d : t) (v : F.Tast.var) : bool * bool =
  if not (mem_bool d v) then (true, true)
  else begin
    let can_f = ref false and can_t = ref false in
    let rec go forced = function
      | Leaf None -> ()
      | Leaf (Some _) -> (
          match forced with
          | Some true -> can_t := true
          | Some false -> can_f := true
          | None ->
              can_f := true;
              can_t := true)
      | Node (w, fb, tb) when F.Tast.Var.equal w v ->
          go (Some false) fb;
          go (Some true) tb
      | Node (_, fb, tb) ->
          go forced fb;
          go forced tb
    in
    go None d.tree;
    (!can_f, !can_t)
  end

let rec tree_size = function
  | Leaf _ -> 1
  | Node (_, f, t) -> 1 + tree_size f + tree_size t

let size (d : t) = tree_size d.tree

(** Count of decision-tree assertions carried by this element, for the
    invariant census (Sect. 9.4.1): one per live branching node. *)
let count_assertions (d : t) : int =
  let rec go = function
    | Leaf _ -> 0
    | Node (_, f, t) -> 1 + go f + go t
  in
  go d.tree

let pp ppf (d : t) =
  let rec go pad ppf = function
    | Leaf None -> Fmt.pf ppf "%s_|_" pad
    | Leaf (Some m) ->
        if VarMap.is_empty m then Fmt.pf ppf "%sT" pad
        else
          Fmt.pf ppf "%s{%a}" pad
            Fmt.(
              list ~sep:comma (fun ppf (v, i) ->
                  Fmt.pf ppf "%s:%a" v.F.Tast.v_name Itv.pp i))
            (VarMap.bindings m)
    | Node (v, f, t) ->
        Fmt.pf ppf "%s%s?@\n%a@\n%a" pad v.F.Tast.v_name
          (go (pad ^ "  ")) t (go (pad ^ "  ")) f
  in
  go "" ppf d.tree
