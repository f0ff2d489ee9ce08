(** The relational component of the abstract state: the pack-wise
    product of the relational domains — one octagon per octagon pack
    (Sect. 6.2.2), one ellipsoid element per filter pack (Sect. 6.2.3)
    and one decision tree per boolean pack (Sect. 6.2.4), each keyed by
    its pack id in a sharable functional map so that unmodified packs
    are shared across joins (Sect. 7.2.1: "the octagon packs are
    efficiently manipulated using functional maps ... to achieve
    sub-linear time costs via sharing of unmodified octagons").

    Every operation here is one fold over {!domains}, in product order. *)

module D = Astree_domains

type t = Reldom.rel = {
  octs : D.Octagon.t Ptmap.t;
  ells : D.Ellipsoid.t Ptmap.t;
  dts : D.Decision_tree.t Ptmap.t;
}

let domains : (module Reldom.S) list =
  [ (module Reldom_oct); (module Reldom_ell); (module Reldom_dt) ]

let empty : t = { octs = Ptmap.empty; ells = Ptmap.empty; dts = Ptmap.empty }

let top (packs : Packing.t) : t =
  List.fold_left
    (fun r (module M : Reldom.S) ->
      M.set r
        (List.fold_left
           (fun m p -> Ptmap.add (M.pack_id p) (M.top p) m)
           Ptmap.empty (M.packs packs)))
    empty domains

(* ------------------------------------------------------------------ *)
(* Lattice operations (pack-wise with sharing short-cuts)              *)
(* ------------------------------------------------------------------ *)

(* Combine the maps of one domain in [a] and [b] into [r], sharing the
   packs (and the whole map) that did not change. *)
let pointwise (type e) (module M : Reldom.S with type t = e)
    (f : e -> e -> e) (a : t) (b : t) (r : t) : t =
  let m =
    Ptmap.union_idem (fun _ x y -> if x == y then x else f x y) (M.get a) (M.get b)
  in
  if m == M.get r then r else M.set r m

let join a b =
  List.fold_left (fun r (module M : Reldom.S) -> pointwise (module M) M.join a b r) a domains

let meet a b =
  List.fold_left (fun r (module M : Reldom.S) -> pointwise (module M) M.meet a b r) a domains

let widen ~thresholds a b =
  List.fold_left
    (fun r (module M : Reldom.S) -> pointwise (module M) (M.widen ~thresholds) a b r)
    a domains

let narrow a b =
  List.fold_left (fun r (module M : Reldom.S) -> pointwise (module M) M.narrow a b r) a domains

let subset (a : t) (b : t) : bool =
  List.for_all
    (fun (module M : Reldom.S) ->
      Ptmap.subset_by (fun x y -> x == y || M.subset x y) (M.get a) (M.get b))
    domains

let equal (a : t) (b : t) : bool =
  List.for_all
    (fun (module M : Reldom.S) -> Ptmap.equal_by M.equal (M.get a) (M.get b))
    domains

(* ------------------------------------------------------------------ *)
(* Accounting                                                           *)
(* ------------------------------------------------------------------ *)

let census ?(note = ignore) (r : t) : (string * int) list =
  List.concat_map
    (fun (module M : Reldom.S) ->
      Ptmap.fold (fun _ x acc -> M.census note x @ acc) (M.get r) [])
    domains

let pp ppf (r : t) : unit =
  List.iter
    (fun (module M : Reldom.S) -> Ptmap.iter (M.pp ppf) (M.get r))
    domains
