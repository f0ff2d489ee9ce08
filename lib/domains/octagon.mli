(** The octagon abstract domain (Sect. 6.2.2), after Miné.

    An octagon over a pack of variables represents conjunctions of
    constraints (+-x +-y <= c) in a difference-bound matrix: index [2k]
    stands for [+v_k], [2k+1] for [-v_k], and the entry at [i*n2 + j] of
    the flat row-major matrix bounds [V_j - V_i].  Strong closure is
    cubic in the pack size; packs are kept small by the packing strategy
    of Sect. 7.2.1, and the closure-state tracking below keeps the cubic
    pass off the per-statement hot path.

    The domain works in the real field (bounds are binary64 with upward
    rounding); floating-point program expressions reach it only through
    the sound linear forms of Sect. 6.3. *)

(** How much closure work the matrix currently needs.  [Closed]: the
    matrix is strongly closed.  [Dirty s]: strongly closed except on the
    rows/columns of the pack variables in the bitmask [s] (bit k =
    variable k); [close_incremental] repairs this in O(|s|·n²).
    [Unclosed]: nothing is known (widening/narrowing results), a full
    closure is required. *)
type closure_state =
  | Closed
  | Dirty of int
  | Unclosed

type t = {
  pack : Astree_frontend.Tast.var array;  (** this pack's variables *)
  mutable bot : bool;
  n2 : int;  (** 2 * pack size *)
  m : float array;
      (** flat 2n x 2n row-major bound matrix; +infinity = top *)
  mutable closure : closure_state;
}

(** {1 Construction}

    Octagons are mutable; the analyzer copies before updating.  This is
    a contract, not a convention: once an octagon sits in a pack map,
    a recorded function summary may hold it, and an in-place update
    would change that summary behind its key. *)

val top : Astree_frontend.Tast.var array -> t
val bottom : Astree_frontend.Tast.var array -> t
val is_bot : t -> bool
val copy : t -> t

(** Position of a variable in the pack, [-1] when it is not there. *)
val pos : t -> Astree_frontend.Tast.var -> int

(** {1 Closure} *)

(** Full strong closure: Floyd–Warshall shortest paths plus the
    octagonal strengthening step; detects emptiness.  All bound
    arithmetic rounds upward. *)
val close : t -> unit

(** Bring the octagon to [Closed] doing as little work as the tracked
    closure state allows: nothing when already closed, Miné's
    incremental strong closure (O(n²) per dirty variable) when only a
    few variables were touched, the full cubic pass otherwise.  Agrees
    with {!close} exactly in real arithmetic (both compute the unique
    strong closure; see DESIGN.md §9 for the argument and the property
    test). *)
val close_incremental : t -> unit

(** {1 Lattice operations} (on closed arguments) *)

val join : t -> t -> t
val meet : t -> t -> t

(** Standard octagon widening: an unstable bound jumps to +infinity
    ([thresholds] is accepted for interface uniformity but unused —
    see the implementation note about rounding-noise creep).  The result
    is [Unclosed]: closing a widened iterate could undo the
    extrapolation and defeat termination. *)
val widen : thresholds:Thresholds.t -> t -> t -> t

val narrow : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

(** {1 Interval view} *)

(** Lower and upper bound of the variable at a pack position (the
    octagon is not bottom), rounded outward from the matrix's halves. *)
val lower : t -> int -> float
val upper : t -> int -> float

(** Hull of a pack variable; [None] when not in the pack. *)
val get_bounds : t -> Astree_frontend.Tast.var -> (float * float) option

(** Constrain a variable to a range (meet). *)
val set_bounds : t -> Astree_frontend.Tast.var -> float * float -> unit

(** Bounds on [x - y], when both are in the pack and distinct. *)
val get_diff_bounds :
  t -> Astree_frontend.Tast.var -> Astree_frontend.Tast.var ->
  (float * float) option

(** Remove every constraint involving a variable (projection). *)
val forget : t -> Astree_frontend.Tast.var -> unit

(** {1 Constraints} *)

val add_diff_le : t -> Astree_frontend.Tast.var -> Astree_frontend.Tast.var -> float -> unit
(** [add_diff_le o x y c] constrains [x - y <= c]. *)

val add_sum_le : t -> Astree_frontend.Tast.var -> Astree_frontend.Tast.var -> float -> unit
(** [add_sum_le o x y c] constrains [x + y <= c]. *)

val add_neg_sum_le : t -> Astree_frontend.Tast.var -> Astree_frontend.Tast.var -> float -> unit
(** [add_neg_sum_le o x y c] constrains [-x - y <= c]. *)

(** {1 Transfer functions} *)

(** Float hulls for variables outside the pack. *)
type oracle = Astree_frontend.Tast.var -> float * float

(** Exact self-update of variable k by [c, d]: all constraints shift. *)
val shift_var : t -> int -> float -> float -> unit

(** Abstract assignment [x := form]: exact shifting for the self-update
    [x := x + [c,d]]; otherwise, for every unit-coefficient variable
    [y] of the form, the rest of the form is evaluated to an interval
    [c, d] and the constraints [c <= x -+ y <= d] are synthesized — the
    paper's rate-limiter transfer function ("our assignment transfer
    function is smart enough to ... synthesize the invariant
    c <= L - Z <= d"). *)
val assign : t -> oracle -> Astree_frontend.Tast.var -> Linear_form.t -> unit

(** Abstract guard [form <= 0]: octagonal constraints are extracted when
    the form has one or two unit-coefficient pack variables. *)
val guard_le_zero : t -> oracle -> Linear_form.t -> unit

(** {1 Accounting} *)

(** Non-trivial constraints as (sums, differences) — the census split of
    Sect. 9.4.1. *)
val count_constraints : t -> int * int

(** True when the octagon carries at least one relational constraint
    (the usefulness test of Sect. 7.2.2). *)
val has_relational_info : t -> bool

val pp : Format.formatter -> t -> unit
