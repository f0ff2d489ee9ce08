(** Interval linear forms (Sect. 6.3): expressions of the shape

      l = Sum_i [a_i, b_i] . v_i + [a, b]

    over program variables, with interval coefficients.  Linear forms are
    the common language between the expression linearizer and the
    relational domains (octagons, ellipsoids); all coefficient arithmetic
    is interval arithmetic with outward rounding, so a linear form always
    over-approximates the real-field value of the expression it stands
    for. *)

module F = Astree_frontend
module VarMap = F.Tast.VarMap

(** An interval constant [lo, hi]. *)
type coeff = { lo : float; hi : float }

type t = {
  terms : coeff VarMap.t;  (** variable coefficients; absent = 0 *)
  const : coeff;           (** the constant interval term *)
}

let coeff_const f = { lo = f; hi = f }

let coeff_zero = coeff_const 0.0

let coeff_is_zero c = c.lo = 0.0 && c.hi = 0.0

let coeff_of_itv (i : Itv.t) : coeff option =
  match Itv.float_hull i with
  | Some (lo, hi) -> Some { lo; hi }
  | None -> None

let coeff_add a b =
  { lo = Float_utils.add_down a.lo b.lo; hi = Float_utils.add_up a.hi b.hi }

let coeff_neg a = { lo = -.a.hi; hi = -.a.lo }

let coeff_sub a b = coeff_add a (coeff_neg b)

(* Typed [min]/[max] with Stdlib's definitions, as in [Itv]: NaN and
   signed zeros behave as with the polymorphic ones (not [Float.min]). *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b

(* A point factor repeats two of the four products ([mul_down] and
   [mul_up] give 0.0 for a zero of either sign), and the min or max of a
   value with itself is that value: for a point, two products per
   direction give the same bits as four. *)
let coeff_mul a b =
  let module U = Float_utils in
  if a.lo = a.hi then
    {
      lo = fmin (U.mul_down a.lo b.lo) (U.mul_down a.lo b.hi);
      hi = fmax (U.mul_up a.lo b.lo) (U.mul_up a.lo b.hi);
    }
  else if b.lo = b.hi then
    {
      lo = fmin (U.mul_down a.lo b.lo) (U.mul_down a.hi b.lo);
      hi = fmax (U.mul_up a.lo b.lo) (U.mul_up a.hi b.lo);
    }
  else
    let p1l = U.mul_down a.lo b.lo
    and p2l = U.mul_down a.lo b.hi
    and p3l = U.mul_down a.hi b.lo
    and p4l = U.mul_down a.hi b.hi in
    let p1u = U.mul_up a.lo b.lo
    and p2u = U.mul_up a.lo b.hi
    and p3u = U.mul_up a.hi b.lo
    and p4u = U.mul_up a.hi b.hi in
    {
      lo = fmin (fmin p1l p2l) (fmin p3l p4l);
      hi = fmax (fmax p1u p2u) (fmax p3u p4u);
    }

(* division by an interval not containing zero *)
let coeff_div a b =
  if b.lo <= 0.0 && b.hi >= 0.0 then None
  else
    let q1l = Float_utils.div_down a.lo b.lo
    and q2l = Float_utils.div_down a.lo b.hi
    and q3l = Float_utils.div_down a.hi b.lo
    and q4l = Float_utils.div_down a.hi b.hi in
    let q1u = Float_utils.div_up a.lo b.lo
    and q2u = Float_utils.div_up a.lo b.hi
    and q3u = Float_utils.div_up a.hi b.lo
    and q4u = Float_utils.div_up a.hi b.hi in
    Some
      {
        lo = fmin (fmin q1l q2l) (fmin q3l q4l);
        hi = fmax (fmax q1u q2u) (fmax q3u q4u);
      }

let coeff_abs_max c = Float.max (Float.abs c.lo) (Float.abs c.hi)

let pp_coeff ppf c =
  if c.lo = c.hi then Fmt.pf ppf "%g" c.lo else Fmt.pf ppf "[%g,%g]" c.lo c.hi

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let const (c : coeff) : t = { terms = VarMap.empty; const = c }

let zero : t = const coeff_zero

let of_var (v : F.Tast.var) : t =
  { terms = VarMap.singleton v (coeff_const 1.0); const = coeff_zero }

let of_interval lo hi : t = const { lo; hi }

(* ------------------------------------------------------------------ *)
(* Linear operations                                                   *)
(* ------------------------------------------------------------------ *)

let map_terms2 f a b =
  VarMap.merge
    (fun _ ca cb ->
      let c =
        f
          (Option.value ca ~default:coeff_zero)
          (Option.value cb ~default:coeff_zero)
      in
      if coeff_is_zero c then None else Some c)
    a b

let add (a : t) (b : t) : t =
  { terms = map_terms2 coeff_add a.terms b.terms;
    const = coeff_add a.const b.const }

let neg (a : t) : t =
  { terms = VarMap.map coeff_neg a.terms; const = coeff_neg a.const }

let sub (a : t) (b : t) : t = add a (neg b)

(** Multiplication by a constant interval. *)
let scale (k : coeff) (a : t) : t =
  if coeff_is_zero k then zero
  else
    {
      terms =
        VarMap.filter_map
          (fun _ c ->
            let c = coeff_mul k c in
            if coeff_is_zero c then None else Some c)
          a.terms;
      const = coeff_mul k a.const;
    }

(** Division by a constant interval not containing 0. *)
let div_const (a : t) (k : coeff) : t option =
  match coeff_div (coeff_const 1.0) k with
  | Some inv -> Some (scale inv a)
  | None -> None

let is_const (a : t) : coeff option =
  if VarMap.is_empty a.terms then Some a.const else None

(** The single-variable view [k.v + c], if the form has exactly one term. *)
let as_single_var (a : t) : (F.Tast.var * coeff * coeff) option =
  match VarMap.bindings a.terms with
  | [ (v, k) ] -> Some (v, k, a.const)
  | _ -> None

(** The two-variable view, for octagon transfer functions. *)
let as_two_vars (a : t) :
    (F.Tast.var * coeff * F.Tast.var * coeff * coeff) option =
  match VarMap.bindings a.terms with
  | [ (v1, k1); (v2, k2) ] -> Some (v1, k1, v2, k2, a.const)
  | _ -> None

let vars (a : t) : F.Tast.var list = List.map fst (VarMap.bindings a.terms)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(** Evaluate the form to an interval, given an oracle for variable
    ranges.  All computations use outward rounding. *)
type acc = { mutable alo : float; mutable ahi : float }

let eval (oracle : F.Tast.var -> float * float) (a : t) : float * float =
  (* an all-float record holds the running bounds unboxed: no tuple per
     term *)
  let acc = { alo = a.const.lo; ahi = a.const.hi } in
  VarMap.iter
    (fun v k ->
      let vlo, vhi = oracle v in
      let p = coeff_mul k { lo = vlo; hi = vhi } in
      acc.alo <- Float_utils.add_down acc.alo p.lo;
      acc.ahi <- Float_utils.add_up acc.ahi p.hi)
    a.terms;
  (acc.alo, acc.ahi)

(** Evaluate to an interval coefficient. *)
let eval_coeff oracle a : coeff =
  let lo, hi = eval oracle a in
  { lo; hi }

(* ------------------------------------------------------------------ *)
(* Rounding-error enlargement (Sect. 6.3)                              *)
(* ------------------------------------------------------------------ *)

(** Add the absolute rounding error of one IEEE operation on kind [k]:
    given the magnitude bound [m] of the exact result, the rounded result
    differs by at most [rel_err k * m + abs_err k].  The error is absorbed
    into the constant term (the paper's "absolute error interval" choice,
    "more easily implemented and ... precise enough"). *)
let add_rounding_error (k : F.Ctypes.fkind) (magnitude : float) (a : t) : t =
  let e =
    Float_utils.add_up
      (Float_utils.mul_up (Float_utils.rel_err k) magnitude)
      (Float_utils.abs_err k)
  in
  { a with const = coeff_add a.const { lo = -.e; hi = e } }

(** Magnitude bound of the form under an oracle (used to size the error
    terms). *)
let magnitude oracle (a : t) : float =
  let lo, hi = eval oracle a in
  Float.max (Float.abs lo) (Float.abs hi)

let pp ppf (a : t) =
  let terms = VarMap.bindings a.terms in
  if terms = [] then pp_coeff ppf a.const
  else begin
    Fmt.list ~sep:(Fmt.any " + ")
      (fun ppf (v, c) -> Fmt.pf ppf "%a*%s" pp_coeff c v.F.Tast.v_name)
      ppf terms;
    if not (coeff_is_zero a.const) then Fmt.pf ppf " + %a" pp_coeff a.const
  end
