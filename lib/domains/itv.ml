(** The interval abstract domain (Sect. 6.2.1), for both integer and
    floating-point values, with sound outward rounding on float bounds and
    handling of the IEEE special values.

    Integer bounds are native OCaml integers with [min_int]/[max_int]
    acting as -oo/+oo (all target integer types are at most 32-bit so
    finite bounds are exact).  Float bounds are binary64 with outward
    rounding; NaN never appears in a bound — possible invalid operations
    are reported separately by the transfer functions of the analyzer. *)

module Sat = Float_utils.Sat

type t =
  | Bot                     (** unreachable *)
  | Int of int * int        (** integer interval [lo, hi] *)
  | Float of float * float  (** float interval [lo, hi], bounds never NaN *)

(* ------------------------------------------------------------------ *)
(* Constructors and views                                              *)
(* ------------------------------------------------------------------ *)

let bot = Bot

let int_range lo hi = if lo > hi then Bot else Int (lo, hi)

let float_range lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then Bot else Float (lo, hi)

let int_const n = Int (n, n)
let float_const f = if Float.is_nan f then Bot else Float (f, f)

(* Typed [min]/[max] with Stdlib's definitions ([if a <= b then a else
   b]), so NaN and signed zeros behave exactly as with the polymorphic
   ones, but compiled to one float or int comparison instead of a
   [compare_val] call.  Not [Float.min]/[Float.max]: those return NaN
   for a NaN on either side and order -0. below +0. *)
let[@inline] fmin (a : float) b = if a <= b then a else b
let[@inline] fmax (a : float) b = if a >= b then a else b
let[@inline] imin (a : int) b = if a <= b then a else b
let[@inline] imax (a : int) b = if a >= b then a else b

let top_int = Int (Sat.neg_inf, Sat.pos_inf)
let top_float = Float (Float.neg_infinity, Float.infinity)

let is_bot = function Bot -> true | _ -> false

let is_int = function Int _ -> true | _ -> false

let is_float = function Float _ -> true | _ -> false

let is_singleton = function
  | Int (a, b) -> a = b
  | Float (a, b) -> a = b
  | Bot -> false

(** Finite width, when both bounds are finite. *)
let width = function
  | Bot -> Some 0.0
  | Int (a, b) when not (Sat.is_inf a || Sat.is_inf b) ->
      Some (float_of_int (b - a))
  | Float (a, b) when Float.abs a <> Float.infinity && Float.abs b <> Float.infinity ->
      Some (b -. a)
  | _ -> None

let equal a b =
  match (a, b) with
  | Bot, Bot -> true
  | Int (x, y), Int (x', y') -> x = x' && y = y'
  | Float (x, y), Float (x', y') -> x = x' && y = y'
  | _ -> false

let pp ppf = function
  | Bot -> Fmt.string ppf "_|_"
  | Int (a, b) ->
      let pb ppf x =
        if x = Sat.neg_inf then Fmt.string ppf "-oo"
        else if x = Sat.pos_inf then Fmt.string ppf "+oo"
        else Fmt.int ppf x
      in
      Fmt.pf ppf "[%a, %a]" pb a pb b
  | Float (a, b) -> Fmt.pf ppf "[%g, %g]" a b

(* ------------------------------------------------------------------ *)
(* Lattice operations                                                  *)
(* ------------------------------------------------------------------ *)

let subset a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | Int (x, y), Int (x', y') -> x >= x' && y <= y'
  | Float (x, y), Float (x', y') -> x >= x' && y <= y'
  | Int (x, y), Float (x', y') ->
      (* an integer set is included in a float interval if its hull is *)
      (Sat.is_inf x && x' = Float.neg_infinity || (not (Sat.is_inf x)) && float_of_int x >= x')
      && (Sat.is_inf y && y' = Float.infinity || (not (Sat.is_inf y)) && float_of_int y <= y')
  | Float _, Int _ -> false

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Int (x, y), Int (x', y') -> Int (imin x x', imax y y')
  | Float (x, y), Float (x', y') -> Float (fmin x x', fmax y y')
  | Int _, Float _ | Float _, Int _ -> invalid_arg "Itv.join: kind mismatch"

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Int (x, y), Int (x', y') -> int_range (imax x x') (imin y y')
  | Float (x, y), Float (x', y') -> float_range (fmax x x') (fmin y y')
  | Int _, Float _ | Float _, Int _ -> invalid_arg "Itv.meet: kind mismatch"

(* Counts unstable bounds caught by a finite threshold instead of
   escaping to infinity — the signal that the threshold set is doing its
   job (ISSUE 5; surfaced per loop head in the fixpoint trace). *)
let threshold_hits = Astree_obs.Metrics.counter "widen.threshold_hits"

(** Widening with thresholds (Sect. 7.1.2): an unstable bound jumps to the
    nearest enclosing threshold.  The threshold sets always contain
    -oo/+oo so the result is defined. *)
let widen ~(thresholds : float array) a b =
  (* thresholds is sorted ascending and symmetric, containing +-infinity *)
  let up_float v =
    let n = Array.length thresholds in
    let rec go i = if i >= n then Float.infinity
      else if thresholds.(i) >= v then thresholds.(i) else go (i + 1)
    in
    go 0
  in
  let down_float v =
    let n = Array.length thresholds in
    let rec go i = if i < 0 then Float.neg_infinity
      else if thresholds.(i) <= v then thresholds.(i) else go (i - 1)
    in
    go (n - 1)
  in
  let up_int v =
    if v = Sat.pos_inf then Sat.pos_inf
    else
      let f = up_float (float_of_int v) in
      if f >= 4.0e18 then Sat.pos_inf else int_of_float (Float.ceil f)
  in
  let down_int v =
    if v = Sat.neg_inf then Sat.neg_inf
    else
      let f = down_float (float_of_int v) in
      if f <= -4.0e18 then Sat.neg_inf else int_of_float (Float.floor f)
  in
  let hit_int v =
    if v <> Sat.neg_inf && v <> Sat.pos_inf then
      Astree_obs.Metrics.incr threshold_hits;
    v
  in
  let hit_float v =
    if Float.is_finite v then Astree_obs.Metrics.incr threshold_hits;
    v
  in
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Int (x, y), Int (x', y') ->
      Int
        ((if x' < x then hit_int (down_int x') else x),
         if y' > y then hit_int (up_int y') else y)
  | Float (x, y), Float (x', y') ->
      Float
        ((if x' < x then hit_float (down_float x') else x),
         if y' > y then hit_float (up_float y') else y)
  | Int _, Float _ | Float _, Int _ -> invalid_arg "Itv.widen: kind mismatch"

(** Narrowing: refine infinite bounds only (standard interval narrowing,
    Sect. 5.5), guaranteeing termination. *)
let narrow a b =
  match (a, b) with
  | Bot, _ -> Bot
  | _, Bot -> Bot
  | Int (x, y), Int (x', y') ->
      int_range (if x = Sat.neg_inf then x' else x)
        (if y = Sat.pos_inf then y' else y)
  | Float (x, y), Float (x', y') ->
      float_range
        (if x = Float.neg_infinity then x' else x)
        (if y = Float.infinity then y' else y)
  | Int _, Float _ | Float _, Int _ -> invalid_arg "Itv.narrow: kind mismatch"

(* ------------------------------------------------------------------ *)
(* Forward transfer functions                                          *)
(* ------------------------------------------------------------------ *)

(* Integer operations are computed on unbounded integers; the analyzer's
   transfer layer intersects with the type range and reports overflow
   alarms. *)

let neg = function
  | Bot -> Bot
  | Int (a, b) -> Int (Sat.neg b, Sat.neg a)
  | Float (a, b) -> Float (-.b, -.a)

let add x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (c, d) -> Int (Sat.add a c, Sat.add b d)
  | Float (a, b), Float (c, d) ->
      float_range (Float_utils.add_down a c) (Float_utils.add_up b d)
  | _ -> invalid_arg "Itv.add: kind mismatch"

let sub x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (c, d) -> Int (Sat.sub a d, Sat.sub b c)
  | Float (a, b), Float (c, d) ->
      float_range (Float_utils.sub_down a d) (Float_utils.sub_up b c)
  | _ -> invalid_arg "Itv.sub: kind mismatch"

let mul x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (c, d) ->
      let p1 = Sat.mul a c and p2 = Sat.mul a d in
      let p3 = Sat.mul b c and p4 = Sat.mul b d in
      Int (imin (imin p1 p2) (imin p3 p4), imax (imax p1 p2) (imax p3 p4))
  | Float (a, b), Float (c, d) ->
      (* a point factor repeats two of the four products ([mul_down] and
         [mul_up] give 0.0 for a zero of either sign), and the min or
         max of a value with itself is that value: two products per
         direction give the same bits *)
      if a = b then
        float_range
          (fmin (Float_utils.mul_down a c) (Float_utils.mul_down a d))
          (fmax (Float_utils.mul_up a c) (Float_utils.mul_up a d))
      else if c = d then
        float_range
          (fmin (Float_utils.mul_down a c) (Float_utils.mul_down b c))
          (fmax (Float_utils.mul_up a c) (Float_utils.mul_up b c))
      else
        let lo =
          fmin
            (fmin (Float_utils.mul_down a c) (Float_utils.mul_down a d))
            (fmin (Float_utils.mul_down b c) (Float_utils.mul_down b d))
        in
        let hi =
          fmax
            (fmax (Float_utils.mul_up a c) (Float_utils.mul_up a d))
            (fmax (Float_utils.mul_up b c) (Float_utils.mul_up b d))
        in
        float_range lo hi
  | _ -> invalid_arg "Itv.mul: kind mismatch"

(* Division excluding 0 from the divisor (the caller reports the
   division-by-zero alarm and continues with the non-erroneous results,
   Sect. 5.3). *)
let div x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (c, d) ->
      (* split the divisor at 0 *)
      let pos = if d >= 1 then Some (imax c 1, d) else None in
      let neg = if c <= -1 then Some (c, imin d (-1)) else None in
      let quot (c, d) =
        let q1 = Sat.div a c and q2 = Sat.div a d in
        let q3 = Sat.div b c and q4 = Sat.div b d in
        (imin (imin q1 q2) (imin q3 q4), imax (imax q1 q2) (imax q3 q4))
      in
      let r1 = Option.map quot pos and r2 = Option.map quot neg in
      (match (r1, r2) with
      | None, None -> Bot
      | Some (l, h), None | None, Some (l, h) -> Int (l, h)
      | Some (l1, h1), Some (l2, h2) -> Int (imin l1 l2, imax h1 h2))
  | Float (a, b), Float (c, d) ->
      (* directed division on possibly-infinite bounds; conservative on
         inf/inf (the result bound escapes to the rounding direction) *)
      let sdiv_up x y =
        if x = 0.0 then 0.0
        else if Float.abs x = Float.infinity && Float.abs y = Float.infinity
        then Float.infinity
        else if Float.abs y = Float.infinity then 0.0
        else Float_utils.div_up x y
      in
      let sdiv_down x y =
        if x = 0.0 then 0.0
        else if Float.abs x = Float.infinity && Float.abs y = Float.infinity
        then Float.neg_infinity
        else if Float.abs y = Float.infinity then 0.0
        else Float_utils.div_down x y
      in
      let strictly_pos c d =
        (* divisor in [c, d], c > 0 *)
        let lo = fmin (sdiv_down a c) (sdiv_down a d) in
        let hi = fmax (sdiv_up b c) (sdiv_up b d) in
        float_range lo hi
      in
      let strictly_neg c d =
        (* divisor in [c, d], d < 0 *)
        let lo = fmin (sdiv_down b c) (sdiv_down b d) in
        let hi = fmax (sdiv_up a c) (sdiv_up a d) in
        float_range lo hi
      in
      if c > 0.0 then strictly_pos c d
      else if d < 0.0 then strictly_neg c d
      else begin
        (* the divisor range touches 0: quotients are unbounded on the
           side(s) where the dividend is non-zero *)
        let parts = ref [] in
        if d > 0.0 then begin
          let lo = if a >= 0.0 then sdiv_down a d else Float.neg_infinity in
          let hi = if b <= 0.0 then sdiv_up b d else Float.infinity in
          parts := float_range lo hi :: !parts
        end;
        if c < 0.0 then begin
          let lo = if b <= 0.0 then sdiv_down b c else Float.neg_infinity in
          let hi = if a >= 0.0 then sdiv_up a c else Float.infinity in
          parts := float_range lo hi :: !parts
        end;
        List.fold_left
          (fun acc p -> match (acc, p) with
            | Bot, p -> p
            | acc, Bot -> acc
            | acc, p -> join acc p)
          Bot !parts
      end
  | _ -> invalid_arg "Itv.div: kind mismatch"

(* C truncated remainder; divisor 0 excluded by the caller. *)
let rem x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (c, d) ->
      if c = Sat.neg_inf || d = Sat.pos_inf then
        (* |x mod y| < |y|, same sign as x *)
        Int ((if a < 0 then Sat.neg_inf else 0), if b > 0 then Sat.pos_inf else 0)
      else
        let m = imax (abs c) (abs d) in
        if m = 0 then Bot
        else
          let lo = if a < 0 then -(m - 1) else 0 in
          let hi = if b > 0 then m - 1 else 0 in
          (* tighten using the dividend's magnitude *)
          let lo = if not (Sat.is_inf a) then imax lo a else lo in
          let hi = if not (Sat.is_inf b) then imin hi b else hi in
          int_range lo hi
  | _ -> invalid_arg "Itv.rem: integer only"

let abs = function
  | Bot -> Bot
  | Int (a, b) ->
      if a >= 0 then Int (a, b)
      else if b <= 0 then Int (Sat.neg b, Sat.neg a)
      else Int (0, imax (Sat.neg a) b)
  | Float (a, b) ->
      if a >= 0.0 then Float (a, b)
      else if b <= 0.0 then Float (-.b, -.a)
      else Float (0.0, Float.max (-.a) b)

(* sqrt on the non-negative part; caller alarms if lo < 0 *)
let sqrt_itv = function
  | Bot -> Bot
  | Float (a, b) ->
      if b < 0.0 then Bot
      else
        let a' = if a < 0.0 then 0.0 else a in
        float_range (Float_utils.sqrt_down a') (Float_utils.sqrt_up b)
  | Int _ -> invalid_arg "Itv.sqrt: float only"

(* Bitwise operations: precise on singletons and non-negative ranges. *)
let shl x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (c, d) when c = d && c >= 0 && c <= 62 ->
      Int (Sat.mul a (1 lsl c), Sat.mul b (1 lsl c))
  | Int (a, _), Int (c, d) when a >= 0 && c >= 0 && d <= 62 ->
      Int (0, Sat.mul (match x with Int (_, b) -> b | _ -> 0) (1 lsl d))
  | Int _, Int _ -> top_int
  | _ -> invalid_arg "Itv.shl: integer only"

let shr x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (c, d) when c = d && c >= 0 && c <= 62 ->
      Int ((if Sat.is_inf a then a else a asr c),
           if Sat.is_inf b then b else b asr c)
  | Int (a, b), Int (c, _) when c >= 0 ->
      (* shifting right by a non-negative amount shrinks the magnitude *)
      Int ((if a >= 0 then 0 else a), if b <= 0 then 0 else b)
  | Int _, Int _ -> top_int
  | _ -> invalid_arg "Itv.shr: integer only"

(* land/lor/lxor: precise on singletons; ranges fall back to magnitude
   bounds for non-negative inputs. *)
let bitop op x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (c, d) when a = b && c = d -> int_const (op a c)
  | Int (a, b), Int (c, d) when a >= 0 && c >= 0 && not (Sat.is_inf b || Sat.is_inf d) ->
      (* all three bitwise ops on [0,b]x[0,d] stay within [0, 2^k-1] where
         2^k-1 >= max b d *)
      let rec pow2m1 v acc = if acc >= v then acc else pow2m1 v ((acc * 2) + 1) in
      Int (0, pow2m1 (imax b d) 1)
  | Int _, Int _ -> top_int
  | _ -> invalid_arg "Itv.bitop: integer only"

let band = bitop ( land )
let bor = bitop ( lor )
let bxor = bitop ( lxor )

let bnot = function
  | Bot -> Bot
  | Int (a, b) ->
      Int ((if Sat.is_inf b then Sat.neg b else lnot b),
           if Sat.is_inf a then Sat.neg a else lnot a)
  | Float _ -> invalid_arg "Itv.bnot: integer only"

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

(** Conversion of an integer interval to a float interval (exact for
    magnitudes below 2^52; rounded outward above). *)
let int_to_float = function
  | Bot -> Bot
  | Int (a, b) ->
      let lo =
        if a = Sat.neg_inf then Float.neg_infinity
        else Float_utils.round_down (float_of_int a)
      in
      let hi =
        if b = Sat.pos_inf then Float.infinity
        else Float_utils.round_up (float_of_int b)
      in
      Float (lo, hi)
  | Float _ as f -> f

(** Truncation of a float interval to an integer interval (C semantics:
    rounding toward zero).  The caller checks representability. *)
let float_to_int = function
  | Bot -> Bot
  | Float (a, b) ->
      let lo =
        if a = Float.neg_infinity || a < -9.0e18 then Sat.neg_inf
        else int_of_float (Float.trunc a)
      in
      let hi =
        if b = Float.infinity || b > 9.0e18 then Sat.pos_inf
        else int_of_float (Float.trunc b)
      in
      Int (lo, hi)
  | Int _ as i -> i

(** Round a float interval to binary32, outward. *)
let to_single = function
  | Bot -> Bot
  | Float (a, b) ->
      let lo, _ = Float_utils.single_bounds a in
      let _, hi = Float_utils.single_bounds b in
      Float (lo, hi)
  | Int _ -> invalid_arg "Itv.to_single: float only"

(** Interval of all values of a C integer type. *)
let of_int_type tgt r s =
  let lo, hi = Astree_frontend.Ctypes.range_of_int_type tgt r s in
  Int (lo, hi)

(** Interval of all finite values of a C float kind. *)
let of_float_kind k =
  let m = Float_utils.fmax k in
  Float (-.m, m)

(* ------------------------------------------------------------------ *)
(* Backward (guard) refinements                                        *)
(* ------------------------------------------------------------------ *)

(** Refine [x] under the constraint [x <= y] (componentwise on kinds).
    Returns the refined x. *)
let refine_le x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (_, d) -> int_range a (imin b d)
  | Float (a, b), Float (_, d) -> float_range a (Float.min b d)
  | _ -> x

let refine_ge x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (c, _) -> int_range (imax a c) b
  | Float (a, b), Float (c, _) -> float_range (Float.max a c) b
  | _ -> x

(** Refine [x] under strict [x < y]. *)
let refine_lt x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (_, d) ->
      int_range a (imin b (if Sat.is_inf d then d else d - 1))
  | Float (a, b), Float (_, d) ->
      (* strict bound: the largest float below d *)
      float_range a (Float.min b (if Float.abs d = Float.infinity then d else Float_utils.fpred d))
  | _ -> x

let refine_gt x y =
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Int (a, b), Int (c, _) ->
      int_range (imax a (if Sat.is_inf c then c else c + 1)) b
  | Float (a, b), Float (c, _) ->
      float_range (Float.max a (if Float.abs c = Float.infinity then c else Float_utils.fsucc c)) b
  | _ -> x

let refine_eq x y = meet x y

(** Refine [x] under [x <> y]: only effective when y is a singleton at one
    of x's integer bounds. *)
let refine_ne x y =
  match (x, y) with
  | Bot, _ -> Bot
  | _, Bot -> Bot
  | Int (a, b), Int (c, d) when c = d ->
      if a = c && b = c then Bot
      else if a = c then int_range (a + 1) b
      else if b = c then int_range a (b - 1)
      else x
  | _ -> x

(** Remove 0 from an interval (for division guards). *)
let exclude_zero = function
  | Bot -> Bot
  | Int (a, b) ->
      if a = 0 && b = 0 then Bot
      else if a = 0 then Int (1, b)
      else if b = 0 then Int (a, -1)
      else Int (a, b)
  | Float (a, b) ->
      if a = 0.0 && b = 0.0 then Bot else Float (a, b)

(** Does the interval contain the integer/float zero? *)
let contains_zero = function
  | Bot -> false
  | Int (a, b) -> a <= 0 && b >= 0
  | Float (a, b) -> a <= 0.0 && b >= 0.0

(** Convex hull of the interval as floats (used by relational domains that
    work in the real field). *)
let float_hull = function
  | Bot -> None
  | Int (a, b) ->
      Some
        ((if a = Sat.neg_inf then Float.neg_infinity else float_of_int a),
         if b = Sat.pos_inf then Float.infinity else float_of_int b)
  | Float (a, b) -> Some (a, b)

(** Truth values of a scalar: (can be zero, can be nonzero). *)
let truth = function
  | Bot -> (false, false)
  | Int (lo, hi) -> (lo <= 0 && hi >= 0, not (lo = 0 && hi = 0))
  | Float (lo, hi) -> (lo <= 0.0 && hi >= 0.0, not (lo = 0.0 && hi = 0.0))

(** The 0/1 interval of a (can be false, can be true) pair. *)
let of_truth = function
  | false, false -> Bot
  | true, false -> int_const 0
  | false, true -> int_const 1
  | true, true -> int_range 0 1
