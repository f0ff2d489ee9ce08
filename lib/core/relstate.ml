(** The relational component of the abstract state: one octagon per
    octagon pack (Sect. 6.2.2), one ellipsoid element per filter pack
    (Sect. 6.2.3) and one decision tree per boolean pack (Sect. 6.2.4),
    each keyed by its pack id in a sharable functional map so that
    unmodified packs are shared across joins (Sect. 7.2.1: "the octagon
    packs are efficiently manipulated using functional maps ... to
    achieve sub-linear time costs via sharing of unmodified octagons"). *)

module F = Astree_frontend
module D = Astree_domains

type t = {
  octs : D.Octagon.t Ptmap.t;
  ells : D.Ellipsoid.t Ptmap.t;
  dts : D.Decision_tree.t Ptmap.t;
}

let top (packs : Packing.t) : t =
  let octs =
    List.fold_left
      (fun m (op : Packing.oct_pack) ->
        Ptmap.add op.op_id (D.Octagon.top op.op_vars) m)
      Ptmap.empty packs.Packing.octs
  in
  let ells =
    List.fold_left
      (fun m (ep : Packing.ell_pack) ->
        Ptmap.add ep.ep_id
          (D.Ellipsoid.make ~a:ep.ep_a ~b:ep.ep_b ~fkind:ep.ep_fkind
             ep.ep_vars)
          m)
      Ptmap.empty packs.Packing.ells
  in
  let dts =
    List.fold_left
      (fun m (dp : Packing.dt_pack) ->
        Ptmap.add dp.dp_id (D.Decision_tree.top dp.dp_bools dp.dp_nums) m)
      Ptmap.empty packs.Packing.dts
  in
  { octs; ells; dts }

let empty : t = { octs = Ptmap.empty; ells = Ptmap.empty; dts = Ptmap.empty }

(* ------------------------------------------------------------------ *)
(* Lattice operations (pack-wise with sharing short-cuts)              *)
(* ------------------------------------------------------------------ *)

let lift2 foct fell fdt (a : t) (b : t) : t =
  {
    octs = Ptmap.union_idem (fun _ x y -> if x == y then x else foct x y) a.octs b.octs;
    ells = Ptmap.union_idem (fun _ x y -> if x == y then x else fell x y) a.ells b.ells;
    dts = Ptmap.union_idem (fun _ x y -> if x == y then x else fdt x y) a.dts b.dts;
  }

let join = lift2 D.Octagon.join D.Ellipsoid.join D.Decision_tree.join
let meet = lift2 D.Octagon.meet D.Ellipsoid.meet D.Decision_tree.meet

let widen ~thresholds =
  lift2
    (D.Octagon.widen ~thresholds)
    (D.Ellipsoid.widen ~thresholds)
    (D.Decision_tree.widen ~thresholds)

let narrow = lift2 D.Octagon.narrow D.Ellipsoid.narrow D.Decision_tree.narrow

let subset (a : t) (b : t) : bool =
  Ptmap.subset_by (fun x y -> x == y || D.Octagon.subset x y) a.octs b.octs
  && Ptmap.subset_by (fun x y -> x == y || D.Ellipsoid.subset x y) a.ells b.ells
  && Ptmap.subset_by
       (fun x y -> x == y || D.Decision_tree.subset x y)
       a.dts b.dts

let equal (a : t) (b : t) : bool =
  Ptmap.equal_by D.Octagon.equal a.octs b.octs
  && Ptmap.equal_by D.Ellipsoid.equal a.ells b.ells
  && Ptmap.equal_by D.Decision_tree.equal a.dts b.dts

(* ------------------------------------------------------------------ *)
(* Pack lookups                                                        *)
(* ------------------------------------------------------------------ *)

let oct_packs_of (packs : Packing.t) (v : F.Tast.var) : Packing.oct_pack list =
  List.filter (fun op -> Packing.op_mem op v) packs.Packing.octs

let ell_packs_of (packs : Packing.t) (v : F.Tast.var) : Packing.ell_pack list =
  List.filter
    (fun (ep : Packing.ell_pack) ->
      Array.exists (F.Tast.Var.equal v) ep.ep_vars)
    packs.Packing.ells

let dt_packs_of (packs : Packing.t) (v : F.Tast.var) : Packing.dt_pack list =
  List.filter
    (fun (dp : Packing.dt_pack) ->
      Array.exists (F.Tast.Var.equal v) dp.dp_bools
      || Array.exists (F.Tast.Var.equal v) dp.dp_nums)
    packs.Packing.dts

(* ------------------------------------------------------------------ *)
(* Accounting (invariant census, Sect. 9.4.1)                          *)
(* ------------------------------------------------------------------ *)

type census = {
  oct_sum_constraints : int;  (** a <= x + y <= b assertions *)
  oct_diff_constraints : int; (** a <= x - y <= b assertions *)
  ellipsoid_constraints : int;
  dtree_assertions : int;
}

let census (t : t) : census =
  let sums = ref 0 and diffs = ref 0 in
  Ptmap.iter
    (fun _ o ->
      let s, d = D.Octagon.count_constraints o in
      sums := !sums + s;
      diffs := !diffs + d)
    t.octs;
  let ells = ref 0 in
  Ptmap.iter (fun _ e -> ells := !ells + D.Ellipsoid.count_constraints e) t.ells;
  let dts = ref 0 in
  Ptmap.iter
    (fun _ d -> dts := !dts + D.Decision_tree.count_assertions d)
    t.dts;
  {
    oct_sum_constraints = !sums;
    oct_diff_constraints = !diffs;
    ellipsoid_constraints = !ells;
    dtree_assertions = !dts;
  }
