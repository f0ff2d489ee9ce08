(* Systematic lattice-law property tests across all abstract domains:
   subset is reflexive, join is a commutative upper bound, meet is a
   lower bound, widening dominates both sides, and equal elements have
   equal summary-key digests.  These are the soundness obligations of
   Sect. 5.5 and [8, 11].  The relational domains are checked by one
   functor over their common signature ([Reldom.S]), instantiated once
   per domain with a generator of its elements. *)

module C = Astree_core
module F = Astree_frontend
module D = Astree_domains

(* The laws every relational domain must satisfy. *)
module Laws (M : C.Reldom.S) (G : sig
  val name : string
  val arb : M.t QCheck.arbitrary
end) =
struct
  let digest x =
    let buf = Buffer.create 256 in
    M.digest buf x;
    Buffer.contents buf

  let same_digest_if_equal x y = (not (M.equal x y)) || digest x = digest y
  let law name arb f = QCheck.Test.make ~name:(G.name ^ ": " ^ name) arb f
  let pair = QCheck.pair G.arb G.arb

  let props =
    [
      law "subset reflexive" G.arb (fun a -> M.subset a a);
      law "join upper bound" pair (fun (a, b) ->
          let j = M.join a b in
          M.subset a j && M.subset b j);
      law "join commutative" pair (fun (a, b) ->
          M.equal (M.join a b) (M.join b a));
      law "meet lower bound" pair (fun (a, b) ->
          let m = M.meet a b in
          M.subset m a && M.subset m b);
      law "widen dominates" pair (fun (a, b) ->
          let w = M.widen ~thresholds:D.Thresholds.default a b in
          M.subset a w && M.subset b w);
      law "equal implies same digest" pair (fun (a, b) ->
          same_digest_if_equal a b
          && same_digest_if_equal (M.join a b) (M.join b a)
          && same_digest_if_equal a (M.join a a));
    ]
end

let mkvar =
  let next = ref 7000 in
  fun name ty ->
    incr next;
    {
      F.Tast.v_id = !next;
      v_name = name;
      v_orig = name;
      v_ty = ty;
      v_kind = F.Tast.Kglobal;
      v_volatile = false;
      v_loc = F.Loc.dummy;
    }

(* ------------------------------------------------------------------ *)
(* Octagon                                                             *)
(* ------------------------------------------------------------------ *)

(* fixed 3-variable pack shared by all generated octagons *)
let oct_pack =
  [| mkvar "ox" F.Ctypes.t_float; mkvar "oy" F.Ctypes.t_float;
     mkvar "oz" F.Ctypes.t_float |]

type oct_recipe = {
  boxes : (float * float) list;  (** per variable *)
  diffs : (int * int * float) list;  (** x_i - x_j <= c *)
  sums : (int * int * float) list;   (** x_i + x_j <= c *)
}

let gen_oct_recipe : oct_recipe QCheck.Gen.t =
  QCheck.Gen.(
    let bound = float_range (-40.0) 40.0 in
    let pair_c =
      triple (int_range 0 2) (int_range 0 2) (float_range (-20.0) 60.0)
    in
    map3
      (fun boxes diffs sums -> { boxes; diffs; sums })
      (list_repeat 3
         (map2 (fun a b -> (Float.min a b, Float.max a b)) bound bound))
      (list_size (int_range 0 3) pair_c)
      (list_size (int_range 0 3) pair_c))

let build_oct (r : oct_recipe) : D.Octagon.t =
  let o = D.Octagon.top oct_pack in
  List.iteri (fun i (lo, hi) -> D.Octagon.set_bounds o oct_pack.(i) (lo, hi)) r.boxes;
  List.iter
    (fun (i, j, c) ->
      if i <> j then D.Octagon.add_diff_le o oct_pack.(i) oct_pack.(j) c)
    r.diffs;
  List.iter
    (fun (i, j, c) ->
      if i <> j then D.Octagon.add_sum_le o oct_pack.(i) oct_pack.(j) c)
    r.sums;
  D.Octagon.close o;
  o

let arb_oct =
  QCheck.make
    ~print:(fun r -> Fmt.str "%d boxes" (List.length r.boxes))
    gen_oct_recipe

let arb_oct_elt =
  QCheck.make ~print:(Fmt.str "%a" D.Octagon.pp) (QCheck.Gen.map build_oct gen_oct_recipe)

module Oct_laws =
  Laws (C.Reldom_oct) (struct let name = "octagon" let arb = arb_oct_elt end)

let oct_props =
  let module O = D.Octagon in
  Oct_laws.props
  @ [
    QCheck.Test.make ~name:"octagon: closure reductive, idempotent to 1 ulp"
      arb_oct (fun r ->
        let o = build_oct r in
        let before = O.copy o in
        O.close o;
        O.subset o before
        &&
        let once = O.copy o in
        O.close o;
        (* with upward-rounded bound arithmetic, a second closure may
           shave at most rounding noise off each entry *)
        O.subset o once
        &&
        let n2 = 2 * Array.length oct_pack in
        let ok = ref true in
        for i = 0 to n2 - 1 do
          for j = 0 to n2 - 1 do
            let a = o.O.m.((i * n2) + j) and b = once.O.m.((i * n2) + j) in
            if
              not
                (a = b
                || Float.abs (a -. b)
                   <= 1e-9 *. Float.max 1.0 (Float.abs b))
            then ok := false
          done
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Ellipsoid                                                           *)
(* ------------------------------------------------------------------ *)

let ell_pack =
  [| mkvar "ex" F.Ctypes.t_float; mkvar "ey" F.Ctypes.t_float;
     mkvar "ez" F.Ctypes.t_float |]

let build_ell (ks : (int * int * float) list) : D.Ellipsoid.t =
  let e = D.Ellipsoid.make ~a:1.5 ~b:0.7 ~fkind:F.Ctypes.Fsingle ell_pack in
  List.fold_left
    (fun e (i, j, k) -> D.Ellipsoid.set e ell_pack.(i) ell_pack.(j) (Float.abs k))
    e ks

let arb_ell =
  QCheck.make
    ~print:(fun l -> Fmt.str "%d constraints" (List.length l))
    QCheck.Gen.(
      list_size (int_range 0 4)
        (triple (int_range 0 2) (int_range 0 2) (float_range 0.0 100.0)))

let arb_ell_elt =
  QCheck.make ~print:(Fmt.str "%a" D.Ellipsoid.pp)
    (QCheck.Gen.map build_ell (QCheck.gen arb_ell))

module Ell_laws =
  Laws (C.Reldom_ell) (struct let name = "ellipsoid" let arb = arb_ell_elt end)

let ell_props =
  let module E = D.Ellipsoid in
  Ell_laws.props
  @ [
    QCheck.Test.make ~name:"ellipsoid: delta monotone"
      (QCheck.pair (QCheck.float_range 0.0 100.0) (QCheck.float_range 0.0 100.0))
      (fun (k1, k2) ->
        let e = build_ell [] in
        let lo = Float.min k1 k2 and hi = Float.max k1 k2 in
        E.delta e ~t_max:1.0 lo <= E.delta e ~t_max:1.0 hi);
  ]

(* ------------------------------------------------------------------ *)
(* Decision trees                                                      *)
(* ------------------------------------------------------------------ *)

let dt_bools = [| mkvar "db1" F.Ctypes.t_bool; mkvar "db2" F.Ctypes.t_bool |]
let dt_nums = [| mkvar "dn" F.Ctypes.t_int |]

(* random tree built by a sequence of guard/assign operations *)
type dt_op =
  | Guard of int * bool
  | AssignNum of int * int
  | AssignBool of int * bool
  | ForgetB of int

let gen_dt : D.Decision_tree.t QCheck.Gen.t =
  QCheck.Gen.(
    let op =
      oneof
        [
          map2 (fun i b -> Guard (i, b)) (int_range 0 1) bool;
          map2 (fun lo w -> AssignNum (lo, w)) (int_range (-20) 20) (int_range 0 20);
          map2 (fun i b -> AssignBool (i, b)) (int_range 0 1) bool;
          map (fun i -> ForgetB i) (int_range 0 1);
        ]
    in
    map
      (fun ops ->
        List.fold_left
          (fun d op ->
            match op with
            | Guard (i, b) ->
                let d' = D.Decision_tree.guard_bool d dt_bools.(i) b in
                if D.Decision_tree.is_bot d' then d else d'
            | AssignNum (lo, w) ->
                D.Decision_tree.assign_num d dt_nums.(0) (fun _ _ ->
                    D.Itv.int_range lo (lo + w))
            | AssignBool (i, b) ->
                D.Decision_tree.assign_bool_const d dt_bools.(i) b
            | ForgetB i -> D.Decision_tree.forget_bool d dt_bools.(i))
          (D.Decision_tree.top dt_bools dt_nums)
          ops)
      (list_size (int_range 0 8) op))

let arb_dt = QCheck.make ~print:(fun d -> Fmt.str "tree/%d" (D.Decision_tree.size d)) gen_dt

module Dt_laws =
  Laws (C.Reldom_dt) (struct let name = "dtree" let arb = arb_dt end)

let dt_props =
  let module T = D.Decision_tree in
  Dt_laws.props
  @ [
    QCheck.Test.make ~name:"dtree: guard refines" (QCheck.pair arb_dt QCheck.bool)
      (fun (d, v) ->
        let g = T.guard_bool d dt_bools.(0) v in
        T.subset g d);
  ]

(* ------------------------------------------------------------------ *)
(* Clocked                                                             *)
(* ------------------------------------------------------------------ *)

let gen_clocked : D.Clocked.t QCheck.Gen.t =
  QCheck.Gen.(
    let itv =
      map2
        (fun a b -> D.Itv.int_range (min a b) (max a b))
        (int_range (-100) 100) (int_range (-100) 100)
    in
    map3
      (fun i clk ticks ->
        let c = D.Clocked.of_itv i (D.Itv.int_const clk) in
        let rec tick n c = if n = 0 then c else tick (n - 1) (D.Clocked.tick c) in
        tick ticks c)
      itv (int_range 0 5) (int_range 0 5))

let arb_clocked =
  QCheck.make ~print:(Fmt.str "%a" D.Clocked.pp) gen_clocked

let clocked_props =
  let module C = D.Clocked in
  [
    QCheck.Test.make ~name:"clocked: subset reflexive" arb_clocked (fun c ->
        C.subset c c);
    QCheck.Test.make ~name:"clocked: join upper bound"
      (QCheck.pair arb_clocked arb_clocked) (fun (a, b) ->
        let j = C.join a b in
        C.subset a j && C.subset b j);
    QCheck.Test.make ~name:"clocked: meet lower bound"
      (QCheck.pair arb_clocked arb_clocked) (fun (a, b) ->
        let m = C.meet a b in
        C.subset m a && C.subset m b);
    QCheck.Test.make ~name:"clocked: widen dominates"
      (QCheck.pair arb_clocked arb_clocked) (fun (a, b) ->
        let w = C.widen ~thresholds:D.Thresholds.default a b in
        C.subset a w && C.subset b w);
    QCheck.Test.make ~name:"clocked: reduce is reductive" arb_clocked (fun c ->
        let r = C.reduce (D.Itv.int_range 0 10) c in
        C.subset r c || C.is_bot r);
  ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    (oct_props @ ell_props @ dt_props @ clocked_props)
