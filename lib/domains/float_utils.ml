(** Directed-rounding helpers for sound floating-point interval arithmetic
    (Sect. 6.2.1: "special care has to be taken in the case of
    floating-point values and operations to always perform rounding in the
    right direction").

    OCaml computes in IEEE-754 binary64 round-to-nearest.  A result rounded
    to nearest differs from the exact real by at most half an ulp, so
    stepping one ulp outward ([fsucc] on upper bounds, [fpred] on lower
    bounds) yields a correct directed-rounding over-approximation. *)

(** Next representable double above [x] ([+infinity] is a fixpoint). *)
let[@inline] fsucc (x : float) : float =
  if Float.is_nan x then x
  else if x = Float.infinity then x
  else if x = 0.0 then Float.min_float *. epsilon_float (* smallest denormal *)
  else
    let bits = Int64.bits_of_float x in
    if x > 0.0 then Int64.float_of_bits (Int64.add bits 1L)
    else Int64.float_of_bits (Int64.sub bits 1L)

(** Next representable double below [x] ([-infinity] is a fixpoint). *)
let[@inline] fpred (x : float) : float = -.fsucc (-.x)

(** Round a bound computed in round-to-nearest upward (sound upper bound,
    conservative by one ulp). *)
let round_up (x : float) : float = if Float.is_nan x then x else fsucc x

(** Round a bound computed in round-to-nearest downward. *)
let round_down (x : float) : float = if Float.is_nan x then x else fpred x

(* Error-compensated directed rounding: the rounded result is adjusted by
   one ulp only when the residual error (computed exactly by Knuth's
   TwoSum, resp. an FMA) shows the exact result lies strictly beyond it.
   This keeps exact operations (integer-valued coefficients, x + 0, ...)
   exact, which matters both for precision and for the unit-coefficient
   detection of the octagon transfer functions. *)

(* Overflowed finite results: for an upward rounding, -inf from finite
   operands may be replaced by -max_float (the exact result is >= the
   most negative finite double's neighborhood); dually for downward. *)
let finite2 a b = Float.abs a < Float.infinity && Float.abs b < Float.infinity

let add_up a b =
  let r = a +. b in
  if Float.is_nan r then r
  else if r = Float.infinity then r
  else if r = Float.neg_infinity then
    if finite2 a b then -.max_float else r
  else
    let e = (a -. (r -. b)) +. (b -. (r -. a)) in
    if Float.is_nan e then fsucc r else if e > 0.0 then fsucc r else r

let add_down a b =
  let r = a +. b in
  if Float.is_nan r then r
  else if r = Float.neg_infinity then r
  else if r = Float.infinity then if finite2 a b then max_float else r
  else
    let e = (a -. (r -. b)) +. (b -. (r -. a)) in
    if Float.is_nan e then fpred r else if e < 0.0 then fpred r else r

let sub_up a b = add_up a (-.b)
let sub_down a b = add_down a (-.b)

(* inf * 0 = nan in IEEE; in exact interval arithmetic the product of a
   zero bound with an infinite bound is 0, so the directed products
   return 0 for a zero factor first *)
let mul_up a b =
  if a = 0.0 || b = 0.0 then 0.0
  else
  let r = a *. b in
  if Float.is_nan r then r
  else if r = Float.infinity then r
  else if r = Float.neg_infinity then
    if finite2 a b then -.max_float else r
  else
    let e = Float.fma a b (-.r) in
    if Float.is_nan e then fsucc r else if e > 0.0 then fsucc r else r

let mul_down a b =
  if a = 0.0 || b = 0.0 then 0.0
  else
  let r = a *. b in
  if Float.is_nan r then r
  else if r = Float.neg_infinity then r
  else if r = Float.infinity then if finite2 a b then max_float else r
  else
    let e = Float.fma a b (-.r) in
    if Float.is_nan e then fpred r else if e < 0.0 then fpred r else r

(* For division, the exact quotient exceeds r iff (a - r*b)/b > 0; the
   residual a - r*b is computed exactly with an FMA. *)
let div_up a b =
  if a = 0.0 && b <> 0.0 then 0.0
  else
    let r = a /. b in
    if Float.is_nan r then r
    else if r = Float.infinity then r
    else if r = Float.neg_infinity then
      if finite2 a b then -.max_float else r
    else
      let e = Float.fma r b (-.a) in
      (* exact - r = -e / b *)
      if Float.is_nan e then fsucc r
      else if (e < 0.0 && b > 0.0) || (e > 0.0 && b < 0.0) then fsucc r
      else r

let div_down a b =
  if a = 0.0 && b <> 0.0 then 0.0
  else
    let r = a /. b in
    if Float.is_nan r then r
    else if r = Float.neg_infinity then r
    else if r = Float.infinity then if finite2 a b then max_float else r
    else
      let e = Float.fma r b (-.a) in
      if Float.is_nan e then fpred r
      else if (e > 0.0 && b > 0.0) || (e < 0.0 && b < 0.0) then fpred r
      else r

let sqrt_up a =
  let r = sqrt a in
  if Float.is_nan r || r = Float.infinity then r
  else
    let e = Float.fma r r (-.a) in
    (* exact sqrt > r iff a > r^2 iff e < 0 *)
    if Float.is_nan e then fsucc r else if e < 0.0 then fsucc r else r

let sqrt_down a =
  let r = sqrt a in
  if Float.is_nan r then r
  else
    let e = Float.fma r r (-.a) in
    let r = if Float.is_nan e then fpred r else if e > 0.0 then fpred r else r in
    if r < 0.0 then 0.0 else r

(** Round a double to binary32 (round-to-nearest). *)
let to_single (x : float) : float = Int32.float_of_bits (Int32.bits_of_float x)

(** Next binary32 value above a binary32 [x]. *)
let fsucc32 (x : float) : float =
  let r = to_single x in
  if Float.is_nan r || r = Float.infinity then r
  else if r = 0.0 then Int32.float_of_bits 1l (* smallest denormal32 *)
  else
    let bits = Int32.bits_of_float r in
    if r > 0.0 then Int32.float_of_bits (Int32.add bits 1l)
    else Int32.float_of_bits (Int32.sub bits 1l)

let fpred32 (x : float) : float = -.fsucc32 (-.x)

(** Sound binary32 bracketing of a double: the returned pair [(lo, hi)] of
    binary32 values satisfies [lo <= x <= hi]. *)
let single_bounds (x : float) : float * float =
  let r = to_single x in
  if Float.is_nan r then (Float.neg_infinity, Float.infinity)
  else if r < x then (r, fsucc32 r)
  else if r > x then (fpred32 r, r)
  else (r, r)

(** Greatest relative error of a float w.r.t. a real for a given kind —
    the constant [f] of Sect. 6.2.3. *)
let rel_err = Astree_frontend.Ctypes.frel_err

(** Absolute error floor (smallest denormal). *)
let abs_err = Astree_frontend.Ctypes.fabs_err

(** Largest finite value of a kind. *)
let fmax = Astree_frontend.Ctypes.fmax

(** Unit in the last place of [x] (double). *)
let ulp (x : float) : float =
  if Float.is_nan x || Float.abs x = Float.infinity then Float.nan
  else fsucc (Float.abs x) -. Float.abs x

(** Saturating native-int helpers for integer interval bounds.
    [min_int]/[max_int] act as -oo/+oo. *)
module Sat = struct
  let neg_inf = min_int
  let pos_inf = max_int

  let is_inf x = x = neg_inf || x = pos_inf

  let neg x = if x = neg_inf then pos_inf else if x = pos_inf then neg_inf else -x

  let add x y =
    if x = neg_inf || y = neg_inf then
      if x = pos_inf || y = pos_inf then invalid_arg "Sat.add: oo + -oo"
      else neg_inf
    else if x = pos_inf || y = pos_inf then pos_inf
    else
      let r = x + y in
      (* overflow detection: same-sign operands, result sign flips *)
      if x > 0 && y > 0 && r < 0 then pos_inf
      else if x < 0 && y < 0 && r >= 0 then neg_inf
      else r

  let sub x y = add x (neg y)

  let mul x y =
    if x = 0 || y = 0 then 0
    else if is_inf x || is_inf y then if (x > 0) = (y > 0) then pos_inf else neg_inf
    else
      let r = x * y in
      if x <> 0 && (r / x <> y || (x = -1 && y = min_int)) then
        if (x > 0) = (y > 0) then pos_inf else neg_inf
      else r

  (* truncated division on possibly-infinite bounds; caller excludes 0 *)
  let div x y =
    if y = 0 then invalid_arg "Sat.div by zero"
    else if is_inf x then if (x > 0) = (y > 0) then pos_inf else neg_inf
    else if is_inf y then 0
    else x / y
end
