(** Little-endian Patricia trees over non-negative integer keys, with the
    short-cut evaluation of Sect. 6.1.2: physically identical subtrees
    are recognized in O(1), so binary operations on two environments
    that differ on a few cells run in time proportional to the number of
    differing cells. *)

(** Abstract: two maps with the same bindings may differ in sharing, so
    compare them with {!equal_by}. *)
type 'a t

val empty : 'a t
val is_empty : 'a t -> bool
val singleton : int -> 'a -> 'a t
val find_opt : int -> 'a t -> 'a option
val mem : int -> 'a t -> bool

(** [add k v t] returns [t] itself when [t] already maps [k] to
    (physically) [v]. *)
val add : int -> 'a -> 'a t -> 'a t

val remove : int -> 'a t -> 'a t
val cardinal : 'a t -> int
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val map : ('a -> 'b) -> 'a t -> 'b t
val mapi : (int -> 'a -> 'b) -> 'a t -> 'b t
val filter_map : (int -> 'a -> 'b option) -> 'a t -> 'b t
val bindings : 'a t -> (int * 'a) list
val for_all : (int -> 'a -> bool) -> 'a t -> bool
val exists : (int -> 'a -> bool) -> 'a t -> bool

(** [union_idem f a b]: keys of either map, combined with [f] on both.
    REQUIREMENT for the short-cut: [f k v v] must be semantically [v]
    (true of joins, meets, widenings, narrowings). *)
val union_idem : (int -> 'a -> 'a -> 'a) -> 'a t -> 'a t -> 'a t

(** [inter_keys f a b]: keys present in both maps. *)
val inter_keys : (int -> 'a -> 'a -> 'a option) -> 'a t -> 'a t -> 'a t

(** [subset_by le a b]: every binding of [b] is dominated in [a]
    (missing keys of [b] are unconstrained; missing keys of [a] fail),
    with the physical short-cut. *)
val subset_by : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool

val equal_by : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
