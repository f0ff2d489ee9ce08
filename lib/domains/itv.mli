(** The interval abstract domain (Sect. 6.2.1 of the paper), for both
    integer and IEEE-754 floating-point values.

    Integer bounds are native OCaml integers with [min_int]/[max_int]
    acting as -oo/+oo; float bounds are binary64 with outward (directed)
    rounding, so that every operation over-approximates its real
    counterpart.  NaN never appears in a bound: invalid operations are
    reported separately by the analyzer's transfer functions. *)

type t =
  | Bot                     (** unreachable *)
  | Int of int * int        (** integer interval [lo, hi] *)
  | Float of float * float  (** float interval [lo, hi]; bounds never NaN *)

(** {1 Construction} *)

val bot : t

(** [int_range lo hi] is the integer interval [lo, hi]; [Bot] if empty. *)
val int_range : int -> int -> t

(** [float_range lo hi] is the float interval [lo, hi]; [Bot] if empty or
    either bound is NaN. *)
val float_range : float -> float -> t

val int_const : int -> t
val float_const : float -> t
val top_int : t
val top_float : t

(** Interval of every value of a C integer type on the given target. *)
val of_int_type :
  Astree_frontend.Ctypes.target ->
  Astree_frontend.Ctypes.irank ->
  Astree_frontend.Ctypes.signedness ->
  t

(** Interval of all finite values of a C float kind. *)
val of_float_kind : Astree_frontend.Ctypes.fkind -> t

(** {1 Queries} *)

val is_bot : t -> bool
val is_int : t -> bool
val is_float : t -> bool
val is_singleton : t -> bool

(** Finite width when both bounds are finite, [None] otherwise. *)
val width : t -> float option

val equal : t -> t -> bool
val contains_zero : t -> bool

(** Convex hull as float bounds (used by the relational domains, which
    work in the real field); [None] on [Bot]. *)
val float_hull : t -> (float * float) option

val pp : Format.formatter -> t -> unit

(** {1 Lattice operations} *)

val subset : t -> t -> bool
val join : t -> t -> t
val meet : t -> t -> t

(** Widening with thresholds (Sect. 7.1.2): an unstable bound jumps to
    the nearest enclosing threshold of the (sorted, infinity-terminated)
    threshold array. *)
val widen : thresholds:float array -> t -> t -> t

(** Classical interval narrowing: refines infinite bounds only. *)
val narrow : t -> t -> t

(** {1 Forward transfer functions}

    Integer operations are computed on unbounded integers (with
    saturation at the native-int infinities); the analyzer intersects
    results with the destination type's range and reports overflow
    alarms.  Float operations round outward. *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Division; the divisor should have had zero removed by the caller
    ({!exclude_zero}), but a zero-spanning divisor is still handled
    soundly (unbounded quotients). *)
val div : t -> t -> t

(** C truncated remainder (integers only). *)
val rem : t -> t -> t

val abs : t -> t

(** Square root of the non-negative part (floats only). *)
val sqrt_itv : t -> t

val shl : t -> t -> t
val shr : t -> t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val bnot : t -> t

(** {1 Conversions} *)

(** Integer-to-float conversion (exact below 2^52, outward beyond). *)
val int_to_float : t -> t

(** Float-to-integer truncation (C semantics: toward zero). *)
val float_to_int : t -> t

(** Outward rounding of a float interval to binary32. *)
val to_single : t -> t

(** {1 Backward (guard) refinements}

    [refine_op x y] refines [x] under the constraint [x op y]. *)

val refine_le : t -> t -> t
val refine_ge : t -> t -> t
val refine_lt : t -> t -> t
val refine_gt : t -> t -> t
val refine_eq : t -> t -> t

(** Only effective when [y] is a singleton at one of [x]'s bounds. *)
val refine_ne : t -> t -> t

(** Remove zero when it sits at a bound (for division guards). *)
val exclude_zero : t -> t

(** Truth values of a scalar: (can be zero, can be nonzero). *)
val truth : t -> bool * bool

(** The 0/1 interval of a (can be false, can be true) pair. *)
val of_truth : bool * bool -> t
