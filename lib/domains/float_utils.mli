(** Directed-rounding helpers for sound floating-point interval
    arithmetic (Sect. 6.2.1: "always perform rounding in the right
    direction").

    The [*_up]/[*_down] operations return sound upper/lower bounds of
    the exact real result of one IEEE operation, using error-compensated
    rounding (TwoSum / FMA residuals): exact operations stay exact,
    inexact ones move one ulp outward only when needed.  Exactness
    matters both for precision and for the unit-coefficient detection of
    the octagon transfer functions. *)

(** Next representable binary64 above (infinity is a fixpoint). *)
val fsucc : float -> float

(** Next representable binary64 below. *)
val fpred : float -> float

(** Conservative one-ulp outward rounding (no residual check). *)
val round_up : float -> float

val round_down : float -> float

(** {1 Directed operations} *)

val add_up : float -> float -> float
val add_down : float -> float -> float
val sub_up : float -> float -> float
val sub_down : float -> float -> float

(** [0 * x = 0] even for infinite [x] (exact interval arithmetic
    convention for bound products). *)
val mul_up : float -> float -> float

val mul_down : float -> float -> float
val div_up : float -> float -> float
val div_down : float -> float -> float
val sqrt_up : float -> float
val sqrt_down : float -> float

(** {1 binary32 support} *)

(** Round to binary32, to nearest. *)
val to_single : float -> float

(** Next binary32 above / below. *)
val fsucc32 : float -> float

val fpred32 : float -> float

(** Sound binary32 bracketing of a double: [lo <= x <= hi] with both
    bounds binary32 values. *)
val single_bounds : float -> float * float

(** {1 Error model constants} *)

(** Greatest relative error of a float w.r.t. a real (the constant [f]
    of Sect. 6.2.3): 2^-24 / 2^-53. *)
val rel_err : Astree_frontend.Ctypes.fkind -> float

(** Absolute error floor (smallest denormal). *)
val abs_err : Astree_frontend.Ctypes.fkind -> float

(** Largest finite value of a kind. *)
val fmax : Astree_frontend.Ctypes.fkind -> float

(** Unit in the last place (binary64). *)
val ulp : float -> float

(** Saturating native-int helpers for integer interval bounds;
    [min_int]/[max_int] act as -oo/+oo. *)
module Sat : sig
  val neg_inf : int
  val pos_inf : int
  val is_inf : int -> bool
  val neg : int -> int
  val add : int -> int -> int
  val sub : int -> int -> int
  val mul : int -> int -> int

  (** Truncated division; the caller excludes 0 divisors. *)
  val div : int -> int -> int
end
