(** The relational component of the abstract state: one octagon per
    octagon pack, one ellipsoid element per filter pack, one decision
    tree per boolean pack, keyed by pack id in sharable functional maps
    so that unmodified packs are shared across joins (Sect. 7.2.1). *)

module D = Astree_domains

type t = {
  octs : D.Octagon.t Ptmap.t;
  ells : D.Ellipsoid.t Ptmap.t;
  dts : D.Decision_tree.t Ptmap.t;
}

(** All packs at top. *)
val top : Packing.t -> t

val empty : t

(** {1 Lattice operations} (pack-wise with sharing short-cuts) *)

val join : t -> t -> t
val meet : t -> t -> t
val widen : thresholds:D.Thresholds.t -> t -> t -> t
val narrow : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

(** {1 Pack lookups} (linear scans; prefer the indexed lookups of
    {!Transfer}) *)

val oct_packs_of : Packing.t -> Astree_frontend.Tast.var -> Packing.oct_pack list
val ell_packs_of : Packing.t -> Astree_frontend.Tast.var -> Packing.ell_pack list
val dt_packs_of : Packing.t -> Astree_frontend.Tast.var -> Packing.dt_pack list

(** {1 Invariant census (Sect. 9.4.1)} *)

type census = {
  oct_sum_constraints : int;   (** a <= x + y <= b assertions *)
  oct_diff_constraints : int;  (** a <= x - y <= b assertions *)
  ellipsoid_constraints : int;
  dtree_assertions : int;
}

val census : t -> census
