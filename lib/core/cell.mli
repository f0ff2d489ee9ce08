(** Abstract cells (Sect. 6.1.1): an atomic cell per simple variable,
    one cell per element of an expanded array, one cell for a whole
    shrunk (large) array, one cell per record field. *)

type step =
  | Sfield of string  (** record field *)
  | Selem of int      (** element of an expanded array *)
  | Sall              (** the single cell of a shrunk array *)

type t = {
  root : Astree_frontend.Tast.var;
  path : step list;                       (** from the root outward *)
  cty : Astree_frontend.Ctypes.scalar;    (** scalar type of the contents *)
  weak : bool;                            (** shrunk: weak updates only *)
}

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val is_volatile : t -> bool

(** All cells of a variable; arrays larger than [expand_array_max] are
    shrunk into a single weak cell. *)
val cells_of_var :
  structs:(string * Astree_frontend.Ctypes.struct_def) list ->
  expand_array_max:int ->
  Astree_frontend.Tast.var ->
  t list

(** {1 Interning}

    Cells are interned to dense integer ids so that environments can be
    Patricia trees (Sect. 6.1.2).  Scalar variable cells are looked up
    in an array indexed by variable id, every other cell in a table. *)

type interner

(** An empty interner whose scalar-cell array covers variable ids
    [0 .. vars - 1]; larger ids still intern, through the table. *)
val make_interner : vars:int -> interner
val intern : interner -> t -> int

(** The id of an interned cell.
    @raise Invalid_argument naming the cell if it was never interned. *)
val lookup : interner -> t -> int

val of_id : interner -> int -> t

(** The id of an already interned cell, by root variable id and path. *)
val find : interner -> int -> step list -> int option
val count : interner -> int
