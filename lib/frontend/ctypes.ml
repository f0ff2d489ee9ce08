(** C scalar and aggregate types, and the machine target description.

    The paper (Sect. 5.3) notes that the iterator interprets C "as well as
    some information about the target environment (some orders of evaluation
    left unspecified by the C norm, the sizes of the arithmetic types,
    etc.)".  This module centralizes that target information.  The default
    target mirrors the 32-bit avionics machine of the paper. *)

(* ------------------------------------------------------------------ *)
(* Integer kinds                                                       *)
(* ------------------------------------------------------------------ *)

(** Signedness of an integer type. *)
type signedness = Signed | Unsigned

(** Integer rank.  [Bool] models both [_Bool] and the enumerated booleans
    of the program family (the paper treats enumerations, including
    booleans, as integers, Sect. 6.1.1). *)
type irank = Bool | Char | Short | Int | Long

(** Floating-point kinds (IEEE-754 binary32 and binary64). *)
type fkind = Fsingle | Fdouble

(** Scalar types. *)
type scalar = Tint of irank * signedness | Tfloat of fkind

(** Full C-subset types.  Pointers appear only as function parameters
    (call-by-reference, Sect. 4); this is enforced by the type-checker. *)
type t =
  | Tvoid
  | Tscalar of scalar
  | Tarray of t * int             (** element type, statically known size *)
  | Tstruct of string             (** named struct; fields in environment *)
  | Tptr of t                     (** restricted to parameter positions *)

(** A struct layout: ordered list of field names and types. *)
type struct_def = { sname : string; fields : (string * t) list }

(* ------------------------------------------------------------------ *)
(* Target machine                                                      *)
(* ------------------------------------------------------------------ *)

(** Machine target parameters: byte sizes of integer ranks and the
    evaluation order of function-call arguments (left unspecified by the C
    norm; the analyzed compiler fixed it). *)
type target = {
  size_char : int;
  size_short : int;
  size_int : int;
  size_long : int;
  args_left_to_right : bool;
      (** evaluation order for call arguments; the family's compiler
          evaluates left-to-right *)
  char_signed : bool;  (** whether plain [char] is signed on this target *)
}

(** The paper's target: 32-bit machine, 32-bit [int] and [long]. *)
let default_target =
  {
    size_char = 1;
    size_short = 2;
    size_int = 4;
    size_long = 4;
    args_left_to_right = true;
    char_signed = true;
  }

let size_of_irank tgt = function
  | Bool -> 1
  | Char -> tgt.size_char
  | Short -> tgt.size_short
  | Int -> tgt.size_int
  | Long -> tgt.size_long

(** Inclusive range of representable values of an integer type, as native
    OCaml integers.  All target types are at most 32 bits wide so native
    63-bit ints represent every bound exactly. *)
let range_of_int_type tgt rank sign =
  match (rank, sign) with
  | Bool, _ -> (0, 1)
  | _ ->
      let bits = 8 * size_of_irank tgt rank in
      (match sign with
      | Signed -> (-(1 lsl (bits - 1)), (1 lsl (bits - 1)) - 1)
      | Unsigned -> (0, (1 lsl bits) - 1))

(** Largest finite value of a floating-point kind. *)
let fmax = function
  | Fsingle -> 3.40282346638528859812e38 (* max finite binary32 *)
  | Fdouble -> max_float

(** Smallest positive normal value. *)
let fmin_normal = function
  | Fsingle -> 1.17549435082228750797e-38
  | Fdouble -> 2.2250738585072014e-308

(** Relative rounding error bound (half-ulp of 1.0): 2^-24 resp. 2^-53.
    This is the constant [f] of the ellipsoid domain (Sect. 6.2.3) and of
    the linearization error terms (Sect. 6.3). *)
let frel_err = function
  | Fsingle -> ldexp 1.0 (-24)
  | Fdouble -> ldexp 1.0 (-53)

(** Smallest positive denormal, the absolute error floor of a rounding. *)
let fabs_err = function
  | Fsingle -> ldexp 1.0 (-149)
  | Fdouble -> ldexp 1.0 (-1074)

(* ------------------------------------------------------------------ *)
(* Type predicates and conversions                                     *)
(* ------------------------------------------------------------------ *)

let is_integer = function Tscalar (Tint _) -> true | _ -> false
let is_float = function Tscalar (Tfloat _) -> true | _ -> false
let is_scalar = function Tscalar _ -> true | _ -> false
let is_arith = is_scalar

let is_bool = function Tscalar (Tint (Bool, _)) -> true | _ -> false

(** Integer rank ordering used for the usual arithmetic conversions. *)
let irank_order = function Bool -> 0 | Char -> 1 | Short -> 2 | Int -> 3 | Long -> 4

(** Integer promotion: everything below [int] promotes to [int] (all
    sub-int types fit in the target's signed int). *)
let promote tgt s =
  match s with
  | Tint (r, _) when irank_order r < irank_order Int ->
      ignore tgt;
      Tint (Int, Signed)
  | s -> s

(** Usual arithmetic conversions on two promoted scalar types. *)
let usual_arith tgt a b =
  let a = promote tgt a and b = promote tgt b in
  match (a, b) with
  | Tfloat Fdouble, _ | _, Tfloat Fdouble -> Tfloat Fdouble
  | Tfloat Fsingle, _ | _, Tfloat Fsingle -> Tfloat Fsingle
  | Tint (ra, sa), Tint (rb, sb) ->
      if irank_order ra = irank_order rb then
        Tint (ra, if sa = Unsigned || sb = Unsigned then Unsigned else Signed)
      else if irank_order ra > irank_order rb then Tint (ra, sa)
      else Tint (rb, sb)

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_scalar ppf = function
  | Tint (Bool, _) -> Fmt.string ppf "_Bool"
  | Tint (r, s) ->
      let rs = match r with
        | Bool -> "_Bool" | Char -> "char" | Short -> "short"
        | Int -> "int" | Long -> "long"
      in
      if s = Unsigned then Fmt.pf ppf "unsigned %s" rs else Fmt.string ppf rs
  | Tfloat Fsingle -> Fmt.string ppf "float"
  | Tfloat Fdouble -> Fmt.string ppf "double"

let rec pp ppf = function
  | Tvoid -> Fmt.string ppf "void"
  | Tscalar s -> pp_scalar ppf s
  | Tarray (t, n) -> Fmt.pf ppf "%a[%d]" pp t n
  | Tstruct s -> Fmt.pf ppf "struct %s" s
  | Tptr t -> Fmt.pf ppf "%a*" pp t

(* [pp]'s text without a formatter: fingerprints and frame identities
   write one type name per token *)
let scalar_name = function
  | Tint (Bool, _) -> "_Bool"
  | Tint (Char, Signed) -> "char"
  | Tint (Char, Unsigned) -> "unsigned char"
  | Tint (Short, Signed) -> "short"
  | Tint (Short, Unsigned) -> "unsigned short"
  | Tint (Int, Signed) -> "int"
  | Tint (Int, Unsigned) -> "unsigned int"
  | Tint (Long, Signed) -> "long"
  | Tint (Long, Unsigned) -> "unsigned long"
  | Tfloat Fsingle -> "float"
  | Tfloat Fdouble -> "double"

let rec to_string = function
  | Tvoid -> "void"
  | Tscalar s -> scalar_name s
  | Tarray (t, n) -> String.concat "" [ to_string t; "["; string_of_int n; "]" ]
  | Tstruct s -> "struct " ^ s
  | Tptr t -> to_string t ^ "*"

let equal_scalar (a : scalar) (b : scalar) = a = b

let rec equal a b =
  match (a, b) with
  | Tvoid, Tvoid -> true
  | Tscalar x, Tscalar y -> equal_scalar x y
  | Tarray (x, n), Tarray (y, m) -> n = m && equal x y
  | Tstruct x, Tstruct y -> String.equal x y
  | Tptr x, Tptr y -> equal x y
  | _ -> false

(** Convenient abbreviations. *)
let t_bool = Tscalar (Tint (Bool, Unsigned))
let t_int = Tscalar (Tint (Int, Signed))
let t_uint = Tscalar (Tint (Int, Unsigned))
let t_long = Tscalar (Tint (Long, Signed))
let t_float = Tscalar (Tfloat Fsingle)
let t_double = Tscalar (Tfloat Fdouble)
