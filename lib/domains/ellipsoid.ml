(** The ellipsoid abstract domain epsilon(a,b) (Sect. 6.2.3), for
    second-order digital filters

      if (B) { Y := i; X := j; }
      else   { X' := aX - bY + t; Y := X; X := X'; }

    With 0 < b < 1 and a^2 - 4b < 0, the constraint X^2 - aXY + bY^2 <= k
    is preserved by the affine transformation (Prop. 1), provided
    k >= (tM / (1 - sqrt b))^2 where |t| <= tM.

    An abstract element maps ordered variable pairs (X, Y) to a float k
    such that X^2 - aXY + bY^2 <= k; +infinity means no constraint.  All
    computations round upward, and the delta function inflates the
    propagated bound by the relative float error f, exactly as in the
    paper. *)

module F = Astree_frontend

module PairMap = Map.Make (struct
  type t = int * int (* variable ids *)

  let compare (a1, b1) (a2, b2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Int.compare b1 b2
end)

type t = {
  a : float;               (** filter coefficient a *)
  b : float;               (** filter coefficient b, 0 < b < 1 *)
  fkind : F.Ctypes.fkind;  (** float kind of the filter state variables *)
  vars : F.Tast.var array; (** the variables of this pack *)
  k : float PairMap.t;     (** constraints; absent or +inf = none *)
}

(** Do (a, b) satisfy the conditions of Prop. 1? *)
let valid_coeffs ~a ~b = b > 0.0 && b < 1.0 && (a *. a) -. (4.0 *. b) < 0.0

let make ~a ~b ~fkind (vars : F.Tast.var array) : t =
  if not (valid_coeffs ~a ~b) then
    invalid_arg "Ellipsoid.make: coefficients violate Prop. 1";
  { a; b; fkind; vars; k = PairMap.empty }

let mem_var (e : t) (v : F.Tast.var) : bool =
  Array.exists (fun w -> F.Tast.Var.equal v w) e.vars

let find (e : t) (x : F.Tast.var) (y : F.Tast.var) : float =
  match PairMap.find_opt (x.F.Tast.v_id, y.F.Tast.v_id) e.k with
  | Some k -> k
  | None -> Float.infinity

let set (e : t) (x : F.Tast.var) (y : F.Tast.var) (k : float) : t =
  if k = Float.infinity then
    { e with k = PairMap.remove (x.F.Tast.v_id, y.F.Tast.v_id) e.k }
  else { e with k = PairMap.add (x.F.Tast.v_id, y.F.Tast.v_id) k e.k }

(** Remove every constraint mentioning [x] (assignments of unknown shape,
    case 3 of the paper, and initialization). *)
let forget (e : t) (x : F.Tast.var) : t =
  {
    e with
    k =
      PairMap.filter
        (fun (i, j) _ -> i <> x.F.Tast.v_id && j <> x.F.Tast.v_id)
        e.k;
  }

(* ------------------------------------------------------------------ *)
(* The delta function                                                  *)
(* ------------------------------------------------------------------ *)

let up = Float_utils.round_up

(** delta(k) = ((sqrt b + 4f(|a| sqrt b + b)/sqrt(4b - a^2)) sqrt k
                + (1+f) tM)^2

    where f is the greatest relative error of a float w.r.t. a real
    (Sect. 6.2.3).  In exact arithmetic the propagated bound would be
    (sqrt(b k) + tM)^2; the extra terms absorb the rounding of the three
    floating-point operations in X' := aX - bY + t. *)
let delta (e : t) ~(t_max : float) (k : float) : float =
  if k = Float.infinity then Float.infinity
  else
    let f = Float_utils.rel_err e.fkind in
    let sqrt_b = up (sqrt e.b) in
    let disc = up (sqrt ((4.0 *. e.b) -. (e.a *. e.a))) in
    let infl =
      up (4.0 *. f *. up ((Float.abs e.a *. sqrt_b) +. e.b) /. disc)
    in
    let factor = up (sqrt_b +. infl) in
    let root = up (factor *. up (sqrt k)) in
    let shifted = up (root +. up ((1.0 +. f) *. t_max)) in
    up (shifted *. shifted)

(** The minimal self-stable bound (tM / (1 - sqrt b))^2 of Prop. 1. *)
let stable_bound (e : t) ~(t_max : float) : float =
  let sqrt_b = up (sqrt e.b) in
  let d = 1.0 -. sqrt_b in
  if d <= 0.0 then Float.infinity
  else
    let q = up (t_max /. d) in
    up (q *. q)

(* ------------------------------------------------------------------ *)
(* Transfer functions                                                  *)
(* ------------------------------------------------------------------ *)

(** Case 1 of the paper: [x := y] — each constraint containing y yields
    one for x (r'(U,V) = r(sigma U, sigma V)). *)
let assign_copy (e : t) (x : F.Tast.var) (y : F.Tast.var) : t =
  let e' = forget e x in
  let subst (v : int) = if v = x.F.Tast.v_id then y.F.Tast.v_id else v in
  (* for each pair (U,V) with U or V = x, take r(sigma U, sigma V) *)
  let result = ref e' in
  Array.iter
    (fun (v : F.Tast.var) ->
      if not (F.Tast.Var.equal v x) then begin
        (* pair (x, v) *)
        let kxv =
          match
            PairMap.find_opt (subst x.F.Tast.v_id, subst v.F.Tast.v_id) e.k
          with
          | Some k -> k
          | None -> Float.infinity
        in
        if kxv < Float.infinity then result := set !result x v kxv;
        let kvx =
          match
            PairMap.find_opt (subst v.F.Tast.v_id, subst x.F.Tast.v_id) e.k
          with
          | Some k -> k
          | None -> Float.infinity
        in
        if kvx < Float.infinity then result := set !result v x kvx
      end)
    e.vars;
  (* the pair (x, x): r(y, y) *)
  (match PairMap.find_opt (y.F.Tast.v_id, y.F.Tast.v_id) e.k with
  | Some k -> result := set !result x x k
  | None -> ());
  !result

(** Case 2: [x := a y - b z + t] with |t| <= t_max — the filter update.
    Constraints containing x are removed, then (x, y) |-> delta(r(y, z)). *)
let assign_filter (e : t) (x : F.Tast.var) (y : F.Tast.var) (z : F.Tast.var)
    ~(t_max : float) : t =
  let kyz = find e y z in
  let e' = forget e x in
  let k' = delta e ~t_max kyz in
  if k' < Float.infinity then set e' x y k' else e'

(** Case 3: assignment of any other shape. *)
let assign_other (e : t) (x : F.Tast.var) : t = forget e x

(* Guards are ignored (r' = r), per the paper. *)

(* ------------------------------------------------------------------ *)
(* Lattice operations                                                  *)
(* ------------------------------------------------------------------ *)

(* Union, intersection, widening and narrowing are computed
   component-wise.  Missing entries are +infinity. *)

let join (e1 : t) (e2 : t) : t =
  {
    e1 with
    k =
      PairMap.merge
        (fun _ k1 k2 ->
          match (k1, k2) with
          | Some k1, Some k2 -> Some (Float.max k1 k2)
          | _ -> None (* one side unconstrained: the union is too *))
        e1.k e2.k;
  }

let meet (e1 : t) (e2 : t) : t =
  {
    e1 with
    k =
      PairMap.merge
        (fun _ k1 k2 ->
          match (k1, k2) with
          | Some k1, Some k2 -> Some (Float.min k1 k2)
          | Some k, None | None, Some k -> Some k
          | None, None -> None)
        e1.k e2.k;
  }

(** Widening with thresholds on the ellipsoid radii (Sect. 6.2.3: "the
    widening uses thresholds as described in Sect. 7.1.2"). *)
let widen ~(thresholds : Thresholds.t) (e1 : t) (e2 : t) : t =
  {
    e1 with
    k =
      PairMap.merge
        (fun _ k1 k2 ->
          match (k1, k2) with
          | Some k1, Some k2 ->
              if k2 > k1 then
                let t = Thresholds.above thresholds k2 in
                if t = Float.infinity then None else Some t
              else Some k1
          | _ -> None)
        e1.k e2.k;
  }

let narrow (e1 : t) (e2 : t) : t =
  {
    e1 with
    k =
      PairMap.merge
        (fun _ k1 k2 ->
          match (k1, k2) with
          | Some k1, Some _ -> Some k1
          | None, Some k2 -> Some k2 (* refine missing constraints *)
          | Some k1, None -> Some k1
          | None, None -> None)
        e1.k e2.k;
  }

let subset (e1 : t) (e2 : t) : bool =
  PairMap.for_all (fun pair k2 ->
      match PairMap.find_opt pair e1.k with
      | Some k1 -> k1 <= k2
      | None -> false)
    e2.k

let equal (e1 : t) (e2 : t) : bool = PairMap.equal Float.equal e1.k e2.k

let is_top (e : t) : bool = PairMap.is_empty e.k

(* ------------------------------------------------------------------ *)
(* Reduction with the interval domain                                  *)
(* ------------------------------------------------------------------ *)

type oracle = F.Tast.var -> float * float

(** Reduction step (paper): substitute r(X,Y) by the least upper bound of
    the evaluation of X^2 - aXY + bY^2 over the intervals of X and Y; if
    X = Y is known, use (1 - a + b) X^2 which is much more precise. *)
let reduce_from_intervals ?(equal_vars = fun _ _ -> false) (oracle : oracle)
    (e : t) (x : F.Tast.var) (y : F.Tast.var) : t =
  let cur = find e x y in
  let candidate =
    if equal_vars x y then begin
      let xlo, xhi = oracle x in
      if Float.abs xlo = Float.infinity || Float.abs xhi = Float.infinity then
        Float.infinity
      else
        let m = Float.max (Float.abs xlo) (Float.abs xhi) in
        up (up (1.0 -. e.a +. e.b) *. up (m *. m))
    end
    else begin
      let xlo, xhi = oracle x in
      let ylo, yhi = oracle y in
      if
        Float.abs xlo = Float.infinity
        || Float.abs xhi = Float.infinity
        || Float.abs ylo = Float.infinity
        || Float.abs yhi = Float.infinity
      then Float.infinity
      else
        let mx = Float.max (Float.abs xlo) (Float.abs xhi) in
        let my = Float.max (Float.abs ylo) (Float.abs yhi) in
        (* X^2 - aXY + bY^2 <= mx^2 + |a| mx my + b my^2 *)
        up
          (up (mx *. mx)
          +. up (Float.abs e.a *. up (mx *. my))
          +. up (e.b *. up (my *. my)))
    end
  in
  if candidate < cur then set e x y candidate else e

(** [reduce_from_intervals ~equal_vars oracle] folded over every ordered
    pair of the pack's variables, bit for bit, reading each hull once.
    Each pair's step touches only its own entry, so every step sees its
    entry as it was before the fold.  Per variable: the magnitude [m] and the
    equal-variables candidate [(1 - a + b) m^2], computed once; per
    pair: the general candidate.  [equal_vars] only picks which
    candidate applies, so it is asked only when one of the two beats
    the entry: when neither does, the step leaves it as it is either
    way.  A NaN hull gives NaN candidates, which beat nothing; an
    infinite bound gives [+infinity], likewise. *)
let reduce_all ?(equal_vars = fun _ _ -> false) (oracle : oracle) (e : t) :
    t =
  let vars = e.vars in
  let n = Array.length vars in
  let inf = Array.make n false in
  let mag = Array.make n 0.0 in
  let sq = Array.make n 0.0 in
  let bsq = Array.make n 0.0 in
  let eqc = Array.make n 0.0 in
  let coef = up (1.0 -. e.a +. e.b) in
  let abs_a = Float.abs e.a in
  for i = 0 to n - 1 do
    let lo, hi = oracle vars.(i) in
    inf.(i) <- Float.abs lo = Float.infinity || Float.abs hi = Float.infinity;
    let m = Float.max (Float.abs lo) (Float.abs hi) in
    mag.(i) <- m;
    sq.(i) <- up (m *. m);
    bsq.(i) <- up (e.b *. sq.(i));
    eqc.(i) <- (if inf.(i) then Float.infinity else up (coef *. sq.(i)))
  done;
  let k = ref e.k in
  for i = 0 to n - 1 do
    let u = vars.(i) in
    for j = 0 to n - 1 do
      let w = vars.(j) in
      let key = (u.F.Tast.v_id, w.F.Tast.v_id) in
      let cur =
        match PairMap.find_opt key !k with Some c -> c | None -> Float.infinity
      in
      let general =
        if inf.(i) || inf.(j) then Float.infinity
        else
          (* X^2 - aXY + bY^2 <= mx^2 + |a| mx my + b my^2 *)
          up (sq.(i) +. up (abs_a *. up (mag.(i) *. mag.(j))) +. bsq.(j))
      in
      if eqc.(i) < cur || general < cur then begin
        let candidate = if equal_vars u w then eqc.(i) else general in
        if candidate < cur then k := PairMap.add key candidate !k
      end
    done
  done;
  if !k == e.k then e else { e with k = !k }

(** Bound extraction (paper): after X' := aX - bY + t, use
    |X'| <= 2 sqrt(b) sqrt(r'(X', X)) / sqrt(4b - a^2) to tighten the
    interval of X'. *)
let extract_bound (e : t) (x : F.Tast.var) (y : F.Tast.var) : float option =
  let k = find e x y in
  if k = Float.infinity || k < 0.0 then None
  else
    let disc = (4.0 *. e.b) -. (e.a *. e.a) in
    if disc <= 0.0 then None
    else
      let bound = up (2.0 *. up (sqrt e.b) *. up (sqrt k) /. Float_utils.round_down (sqrt disc)) in
      Some bound

(** Best |v| bound derivable from any constraint involving v. *)
let best_bound (e : t) (v : F.Tast.var) : float option =
  PairMap.fold
    (fun (i, j) _k acc ->
      if i = v.F.Tast.v_id then
        let y = Array.to_list e.vars |> List.find_opt (fun w -> w.F.Tast.v_id = j) in
        match y with
        | Some y -> (
            match extract_bound e v y with
            | Some b -> (
                match acc with
                | Some cur -> Some (Float.min cur b)
                | None -> Some b)
            | None -> acc)
        | None -> acc
      else acc)
    e.k None

let count_constraints (e : t) : int =
  PairMap.cardinal (PairMap.filter (fun _ k -> k < Float.infinity) e.k)

let pp ppf (e : t) =
  if is_top e then Fmt.string ppf "T"
  else
    let name id =
      match Array.to_list e.vars |> List.find_opt (fun v -> v.F.Tast.v_id = id) with
      | Some v -> v.F.Tast.v_name
      | None -> Fmt.str "v%d" id
    in
    Fmt.list ~sep:(Fmt.any ", ")
      (fun ppf ((i, j), k) ->
        Fmt.pf ppf "%s^2 - %g.%s.%s + %g.%s^2 <= %g" (name i) e.a (name i)
          (name j) e.b (name j) k)
      ppf
      (PairMap.bindings e.k)
