(** The relational component of the abstract state: the pack-wise
    product of the relational domains, one element per pack keyed by
    pack id in sharable functional maps so that unmodified packs are
    shared across joins (Sect. 7.2.1).  Every operation is one fold over
    {!domains}. *)

module D = Astree_domains

type t = Reldom.rel = {
  octs : D.Octagon.t Ptmap.t;
  ells : D.Ellipsoid.t Ptmap.t;
  dts : D.Decision_tree.t Ptmap.t;
}

(** The relational domains in product order — octagons, ellipsoids,
    decision trees.  Every fold over the product (lattice, transfer,
    census, dump) follows this order; a configuration enables a
    subset through each domain's [enabled]. *)
val domains : (module Reldom.S) list

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

(** {1 Accounting} *)

(** Named assertion counts of every pack (Sect. 9.4.1), one entry per
    pack and name — sum them by name; [note] sees the constants the
    counted assertions involve. *)
val census : ?note:(float -> unit) -> t -> (string * int) list

(** Every informative pack's assertions, in product order (invariant
    dumps). *)
val pp : Format.formatter -> t -> unit
