(** The ellipsoid domain over its filter packs (Sect. 6.2.3): the
    second-order filter update, copies, and the reductions with the
    intervals and the octagons that seed it after a reinitialization. *)

module F = Astree_frontend
module D = Astree_domains
module E = D.Ellipsoid
open F.Tast
open Reldom

type t = E.t
type pack = Packing.ell_pack

let name = "ellipsoid"
let enabled (cfg : Config.t) = cfg.Config.use_ellipsoids
let packs (pk : Packing.t) = pk.Packing.ells
let pack_id (ep : pack) = ep.Packing.ep_id
let packs_of (pk : Packing.t) v = Packing.packs_of pk.Packing.ell_index v
let pack_vars (ep : pack) = ep.Packing.ep_vars

let add_pack name buf (ep : pack) =
  add_float buf ep.Packing.ep_a;
  add_float buf ep.Packing.ep_b;
  Buffer.add_char buf
    (match ep.Packing.ep_fkind with F.Ctypes.Fsingle -> 's' | Fdouble -> 'd');
  add_i64 buf (Array.length ep.Packing.ep_vars);
  List.iter
    (fun v -> add_str buf (name v))
    (Array.to_list ep.Packing.ep_vars
    @ [ ep.Packing.ep_x; ep.Packing.ep_y; ep.Packing.ep_z ])

let rename (ep : pack) (e : t) =
  let by = ep.Packing.ep_vars in
  if rename_vars ~by e.E.vars == e.E.vars then e
  else
    let id = rename_id ~from:e.E.vars ~by in
    {
      e with
      E.vars = by;
      k =
        E.PairMap.fold
          (fun (x, y) kxy acc -> E.PairMap.add (id x, id y) kxy acc)
          e.E.k E.PairMap.empty;
    }

let top (ep : pack) =
  E.make ~a:ep.Packing.ep_a ~b:ep.Packing.ep_b ~fkind:ep.Packing.ep_fkind
    ep.Packing.ep_vars

let get (r : rel) = r.ells
let set (r : rel) ells = { r with ells }
let join = E.join
let meet = E.meet
let widen = E.widen
let narrow = E.narrow
let subset = E.subset
let equal = E.equal

(* Pull a magnitude bound out of the ellipsoids for each variable (the
   paper's |X'| <= 2 sqrt(b . r / (4b - a^2)) reduction). *)
let writeback c ctx st (vars : var list) =
  List.fold_left
    (fun st v ->
      List.fold_left
        (fun st (ep : pack) ->
          match Ptmap.find_opt ep.Packing.ep_id (c.rel st).ells with
          | None -> st
          | Some el -> (
              match E.best_bound el v with
              | Some m -> c.refine ctx st v (D.Itv.float_range (-.m) m)
              | None -> st))
        st
        (packs_of (c.packing ctx) v))
    st vars

(* The filter update x := a.y - b.z + t of pack [ep], with the residual
   t bounded by the intervals of [pre], the state before the write. *)
let assign_filter c ctx pre (ep : pack) el x terms const =
  let t_itv =
    List.fold_left
      (fun acc (v, k) ->
        if Var.equal v ep.Packing.ep_y || Var.equal v ep.Packing.ep_z then acc
        else
          let term =
            D.Itv.mul (D.Itv.float_const k)
              (D.Itv.int_to_float (c.var_itv ctx pre v))
          in
          match acc with D.Itv.Bot -> term | acc -> D.Itv.add acc term)
      (D.Itv.float_const const) terms
  in
  let t_max =
    match D.Itv.float_hull t_itv with
    | Some (lo, hi) -> Float.max (Float.abs lo) (Float.abs hi)
    | None -> 0.0
  in
  (* pre-assignment reduction of r(y, z) from the intervals (the
     paper's third reduction step) *)
  let el =
    E.reduce_from_intervals (oracle c ctx pre) el ep.Packing.ep_y
      ep.Packing.ep_z
  in
  E.assign_filter el x ep.Packing.ep_y ep.Packing.ep_z ~t_max

let assign c ctx ~pre st _binds x (rhs : expr) _rhs_itv =
  match packs_of (c.packing ctx) x with
  | [] -> st
  | packs ->
      let lin = Packing.syntactic_linear rhs in
      let orc = oracle c ctx st in
      (* equality of two pack variables is established through the
         octagons *)
      let equal_vars u w =
        Var.equal u w || Reldom_oct.proves_equal c ctx st u w
      in
      let ells =
        List.fold_left
          (fun ells (ep : pack) ->
            match Ptmap.find_opt ep.Packing.ep_id ells with
            | None -> ells
            | Some el ->
                let el' =
                  match rhs.edesc with
                  (* case 1: straight copy x := y *)
                  | Elval { ldesc = Lvar y; _ } when E.mem_var el y ->
                      E.assign_copy el x y
                  | Ecast (_, { edesc = Elval { ldesc = Lvar y; _ }; _ })
                    when E.mem_var el y ->
                      E.assign_copy el x y
                  | _ -> (
                      (* case 2: the filter update x := a.y - b.z + t *)
                      match lin with
                      | Some (terms, const)
                        when Var.equal x ep.Packing.ep_x
                             && List.exists
                                  (fun (v, k) ->
                                    Var.equal v ep.Packing.ep_y
                                    && k = ep.Packing.ep_a)
                                  terms
                             && List.exists
                                  (fun (v, k) ->
                                    Var.equal v ep.Packing.ep_z
                                    && k = -.ep.Packing.ep_b)
                                  terms ->
                          assign_filter c ctx pre ep el x terms const
                      | _ -> E.assign_other el x)
                in
                (* reduction with the interval domain, run eagerly after
                   every pack-variable assignment; this is what seeds the
                   ellipsoid after a reinitialization iteration (the paper
                   stresses these reduction steps are "especially useful
                   in handling a reinitialization iteration"); on every
                   ordered pair of the pack's variables *)
                Ptmap.add ep.Packing.ep_id
                  (E.reduce_all ~equal_vars orc el')
                  ells)
          (c.rel st).ells packs
      in
      writeback c ctx (c.with_rel st (set (c.rel st) ells)) [ x ]

let guard _ _ st _ _ _ = st

let relates (pk : Packing.t) (vars : var list) =
  List.exists (fun v -> packs_of pk v <> []) vars

let census _ (e : t) = [ ("ellipsoid", E.count_constraints e) ]

let digest buf (e : t) =
  let { E.a; b; fkind; vars; k } = e in
  add_float buf a;
  add_float buf b;
  Buffer.add_char buf
    (match fkind with F.Ctypes.Fsingle -> 's' | Fdouble -> 'd');
  add_i64 buf (Array.length vars);
  (* constraints by pack positions, in position order *)
  let pos id =
    let rec find i =
      if i = Array.length vars then -1
      else if vars.(i).v_id = id then i
      else find (i + 1)
    in
    find 0
  in
  let cs =
    E.PairMap.fold (fun (x, y) kxy acc -> ((pos x, pos y), kxy) :: acc) k []
    |> List.sort compare
  in
  add_i64 buf (List.length cs);
  List.iter
    (fun ((x, y), kxy) ->
      add_i64 buf x;
      add_i64 buf y;
      add_float buf kxy)
    cs

let same (x : t) (y : t) =
  x == y
  ||
  let { E.a; b; fkind; vars; k } = x in
  same_float a y.E.a && same_float b y.E.b && fkind = y.E.fkind
  && Array.length vars = Array.length y.E.vars
  && E.PairMap.equal same_float k y.E.k

let pp ppf pid e =
  if not (E.is_top e) then Fmt.pf ppf "ellipsoid #%d: %a@." pid E.pp e
