(** The ellipsoid abstract domain epsilon(a,b) (Sect. 6.2.3), for
    second-order digital filters

    {v
    if (B) { Y := i; X := j; }
    else   { X' := aX - bY + t; Y := X; X := X'; }
    v}

    With [0 < b < 1] and [a^2 - 4b < 0], the constraint
    [X^2 - aXY + bY^2 <= k] is preserved by the affine transformation
    (Prop. 1 of the paper), provided [k >= (tM / (1 - sqrt b))^2] where
    [|t| <= tM].  An abstract element maps ordered variable pairs to
    such bounds [k]; [+infinity] (or absence) means no constraint. *)

(** Constraint maps are keyed by ordered pairs of variable ids. *)
module PairMap : Map.S with type key = int * int

type t = {
  a : float;
  b : float;
  fkind : Astree_frontend.Ctypes.fkind;
  vars : Astree_frontend.Tast.var array;
  k : float PairMap.t;
}

(** Do the coefficients satisfy the conditions of Prop. 1
    ([0 < b < 1], [a^2 - 4b < 0])? *)
val valid_coeffs : a:float -> b:float -> bool

(** Create the top element of epsilon(a,b) over a pack.
    @raise Invalid_argument when the coefficients violate Prop. 1. *)
val make :
  a:float ->
  b:float ->
  fkind:Astree_frontend.Ctypes.fkind ->
  Astree_frontend.Tast.var array ->
  t

val mem_var : t -> Astree_frontend.Tast.var -> bool

(** Constraint bound for the pair (x, y); [+infinity] when absent. *)
val find : t -> Astree_frontend.Tast.var -> Astree_frontend.Tast.var -> float

val set : t -> Astree_frontend.Tast.var -> Astree_frontend.Tast.var -> float -> t

(** Remove every constraint mentioning a variable (case 3 of the paper's
    assignment, and initialization). *)
val forget : t -> Astree_frontend.Tast.var -> t

(** {1 The delta function} *)

(** [delta e ~t_max k]: the bound propagated through
    [X' := aX - bY + t] with [|t| <= t_max], inflated by the float
    relative error [f] exactly as the paper's formula prescribes. *)
val delta : t -> t_max:float -> float -> float

(** The minimal self-stable bound [(tM / (1 - sqrt b))^2] of Prop. 1. *)
val stable_bound : t -> t_max:float -> float

(** {1 Transfer functions} *)

(** Case 1: [x := y] — constraints containing [y] transfer to [x]. *)
val assign_copy : t -> Astree_frontend.Tast.var -> Astree_frontend.Tast.var -> t

(** Case 2: the filter update [x := a.y - b.z + t]. *)
val assign_filter :
  t ->
  Astree_frontend.Tast.var ->
  Astree_frontend.Tast.var ->
  Astree_frontend.Tast.var ->
  t_max:float ->
  t

(** Case 3: assignment of any other shape (forgets [x]). *)
val assign_other : t -> Astree_frontend.Tast.var -> t

(** {1 Lattice operations} (component-wise on bounds) *)

val join : t -> t -> t
val meet : t -> t -> t
val widen : thresholds:Thresholds.t -> t -> t -> t
val narrow : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val is_top : t -> bool

(** {1 Reduction with the interval domain} *)

type oracle = Astree_frontend.Tast.var -> float * float

(** Tighten [r(x, y)] from the variables' intervals; when
    [equal_vars x y] holds the much more precise [(1 - a + b) X^2]
    bound is used (the paper's reduction steps). *)
val reduce_from_intervals :
  ?equal_vars:(Astree_frontend.Tast.var -> Astree_frontend.Tast.var -> bool) ->
  oracle ->
  t ->
  Astree_frontend.Tast.var ->
  Astree_frontend.Tast.var ->
  t

(** {!reduce_from_intervals} folded over every ordered pair [(u, w)] of
    the pack's variables (rows in pack order, [u = w] included), with
    the same result bit for bit.  Reads each variable's interval once
    and asks [equal_vars u w] only when its answer can change the
    entry. *)
val reduce_all :
  ?equal_vars:(Astree_frontend.Tast.var -> Astree_frontend.Tast.var -> bool) ->
  oracle ->
  t ->
  t

(** The paper's bound extraction
    [|X'| <= 2 sqrt(b . r/(4b - a^2))], for the pair (x, y). *)
val extract_bound :
  t -> Astree_frontend.Tast.var -> Astree_frontend.Tast.var -> float option

(** Best magnitude bound derivable for a variable from any of its
    constraints. *)
val best_bound : t -> Astree_frontend.Tast.var -> float option

(** Number of finite constraints (census, Sect. 9.4.1). *)
val count_constraints : t -> int

val pp : Format.formatter -> t -> unit
