(** The decision tree abstract domain (Sect. 6.2.4): a simple relational
    domain relating boolean variables to numerical variables.

    An abstract element is a binary decision tree branching on the
    pack's booleans (in a fixed, BDD-like order), whose leaves carry one
    interval per numerical variable of the pack.  Equal subtrees are
    shared opportunistically (collapsed). *)

module VarMap = Astree_frontend.Tast.VarMap

(** Leaf environment: intervals for the pack's numerical variables;
    [None] means the leaf is unreachable. *)
type leaf = Itv.t VarMap.t option

type tree =
  | Leaf of leaf
  | Node of Astree_frontend.Tast.var * tree * tree
      (** boolean variable, false-branch, true-branch *)

type t = {
  bools : Astree_frontend.Tast.var array;  (** pack booleans, branch order *)
  nums : Astree_frontend.Tast.var array;   (** pack numerical variables *)
  tree : tree;
}

(** {1 Construction} *)

val top : Astree_frontend.Tast.var array -> Astree_frontend.Tast.var array -> t
val bottom : Astree_frontend.Tast.var array -> Astree_frontend.Tast.var array -> t
val is_bot : t -> bool
val mem_bool : t -> Astree_frontend.Tast.var -> bool
val mem_num : t -> Astree_frontend.Tast.var -> bool

(** {1 Lattice operations} *)

val join : t -> t -> t
val meet : t -> t -> t
val widen : thresholds:Thresholds.t -> t -> t -> t
val narrow : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

(** {1 Transfer functions}

    Leaf callbacks receive the path taken so far as an association list
    from boolean variable ids to their forced values. *)

(** Restrict to the branches where a pack boolean has a given value. *)
val guard_bool : t -> Astree_frontend.Tast.var -> bool -> t

(** Assign a known truth value to a pack boolean. *)
val assign_bool_const : t -> Astree_frontend.Tast.var -> bool -> t

(** [assign_bool_split d b split]: boolean assignment that may split a
    leaf — [split] returns the leaf restricted to rhs-true and rhs-false
    respectively; each part is routed to the matching branch of [b].
    This is how [B := (X == 0)] records X's refinement in both branches
    (the paper's Sect. 6.2.4 example). *)
val assign_bool_split :
  t ->
  Astree_frontend.Tast.var ->
  ((int * bool) list -> leaf -> leaf * leaf) ->
  t

(** Per-leaf assignment of a pack numerical variable. *)
val assign_num :
  t ->
  Astree_frontend.Tast.var ->
  ((int * bool) list -> leaf -> Itv.t) ->
  t

(** Per-leaf refinement under a numerical condition. *)
val guard_num : t -> ((int * bool) list -> leaf -> leaf) -> t

val forget_num : t -> Astree_frontend.Tast.var -> t
val forget_bool : t -> Astree_frontend.Tast.var -> t

(** {1 Queries} *)

(** Overall interval of a pack numerical variable (join over live
    leaves); [None] when unknown in some leaf or not in the pack. *)
val get_num : t -> Astree_frontend.Tast.var -> Itv.t option

(** Possible truth values of a pack boolean:
    [(can_be_false, can_be_true)]. *)
val get_bool : t -> Astree_frontend.Tast.var -> bool * bool

(** Tree size in nodes (leaves included). *)
val size : t -> int

(** Live branching nodes, for the invariant census (Sect. 9.4.1). *)
val count_assertions : t -> int

val pp : Format.formatter -> t -> unit
