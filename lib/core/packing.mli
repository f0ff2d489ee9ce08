(** Parametrized packing (Sect. 7.2): determination, once and for all
    before the analysis starts, of the small variable packs on which the
    relational domains operate. *)

type oct_pack = { op_id : int; op_vars : Astree_frontend.Tast.var array }
(** An octagon pack (Sect. 7.2.1): the numerical variables appearing in
    linear assignments or tests of one syntactic block. *)

val op_mem : oct_pack -> Astree_frontend.Tast.var -> bool
(** Pack membership, by a scan of [op_vars]. *)

type ell_pack = {
  ep_id : int;
  ep_a : float;
  ep_b : float;
  ep_fkind : Astree_frontend.Ctypes.fkind;
  ep_vars : Astree_frontend.Tast.var array;
  ep_x : Astree_frontend.Tast.var;  (** the filter output X' *)
  ep_y : Astree_frontend.Tast.var;  (** the filter state X *)
  ep_z : Astree_frontend.Tast.var;  (** the filter state Y *)
}
(** An ellipsoid pack: one per syntactic filter assignment
    [x := a.y - b.z + t] whose coefficients satisfy Prop. 1. *)

type dt_pack = {
  dp_id : int;
  dp_bools : Astree_frontend.Tast.var array;
  dp_nums : Astree_frontend.Tast.var array;
}
(** A decision-tree pack (Sect. 7.2.3): tentative packs from
    boolean/numeric interactions, kept when confirmed by a use of the
    numerical variable under a branch depending on the boolean. *)

(** Variable id -> the packs containing it (an array indexed by id;
    ids past its end are in no pack). *)
type 'p index = 'p list array

type t = {
  octs : oct_pack list;
  ells : ell_pack list;
  dts : dt_pack list;
  oct_index : oct_pack index;
  ell_index : ell_pack index;
  dt_index : dt_pack index;
}

val packs_of : 'p index -> Astree_frontend.Tast.var -> 'p list

(** Syntactic linear form with exact constant coefficients;
    [None] when the expression is not linear. *)
val syntactic_linear :
  Astree_frontend.Tast.expr ->
  ((Astree_frontend.Tast.var * float) list * float) option

val octagon_packs :
  max_pack:int -> Astree_frontend.Tast.program -> oct_pack list

val ellipsoid_packs : Astree_frontend.Tast.program -> ell_pack list

val decision_tree_packs :
  max_bools:int -> max_nums:int -> Astree_frontend.Tast.program ->
  dt_pack list

(** Determine all packs under a configuration; when
    [cfg.useful_packs_only] is set, octagon packs outside the list are
    dropped (Sect. 7.2.2). *)
val compute : Config.t -> Astree_frontend.Tast.program -> t

val stats : t -> string
