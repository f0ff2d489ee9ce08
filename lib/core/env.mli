(** Abstract environments: the memory abstract domain of Sect. 6.1,
    mapping interned cell ids to abstract values.

    The default representation is the sharable functional map of
    Sect. 6.1.2; a naive functional-array representation is kept for the
    E5 ablation, which reproduces the paper's observation that array
    environments are asymptotically slower ("the execution time was
    divided by seven"). *)

type t =
  | Shared of Avalue.t Ptmap.t
  | Naive of Avalue.t option array

(** [empty ~naive ~ncells]: fresh environment ([ncells] is a size hint
    for the naive representation). *)
val empty : naive:bool -> ncells:int -> t

val find : t -> int -> Avalue.t option
val set : t -> int -> Avalue.t -> t

(** [diff ~base e]: the cells of [e] whose value is not physically
    [base]'s, with their values (cells only [base] binds left out);
    with the shared representation, in time proportional to the cells
    that differ. *)
val diff : base:t -> t -> (int * Avalue.t) list

(** The cells whose id satisfies the predicate. *)
val filter : (int -> bool) -> t -> t

(** Apply to every cell (used by the clock tick, Sect. 6.2.1). *)
val map_all : (Avalue.t -> Avalue.t) -> t -> t

val iter : (int -> Avalue.t -> unit) -> t -> unit
val fold : (int -> Avalue.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc
val cardinal : t -> int

(** {1 Cell-wise lattice operations (Sect. 6.1.3)}

    Cells present on one side only are kept as-is. *)

(** Counted in [env.join], unless [~count:false]. *)
val join : ?count:bool -> t -> t -> t

(** The cells of two environments that bind disjoint cells (the halves
    of a split loop); not counted as a join. *)
val union : t -> t -> t

val meet : t -> t -> t
val widen : thresholds:Astree_domains.Thresholds.t -> t -> t -> t
val narrow : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
