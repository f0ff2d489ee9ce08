(** Interference maps: shared-cell write sets exchanged between the
    per-task analyses of the outer fixpoint (rely/guarantee). *)

module C = Astree_core
module D = Astree_domains

type key = C.Transfer.itf_key

(** Canonical form: sorted by key, no duplicates, no bottom bindings.
    Pure data — marshals across processes. *)
type map = (key * D.Itv.t) list

val empty : map

(** Rely map as the hash table the transfer functions read. *)
val to_table : map -> (key, D.Itv.t) Hashtbl.t

val join : map -> map -> map

(** [widen old new]: point-by-point classical interval widening
    ({-oo,+oo} thresholds); keys only in [new] are adopted as-is. *)
val widen : map -> map -> map

(** [subset a b]: every binding of [a] is included in [b]'s. *)
val subset : map -> map -> bool

val equal : map -> map -> bool

(** Stable digest of the canonical form (folded into per-task config
    fingerprints so cached summaries self-identify their rely). *)
val digest : map -> string

val cardinal : map -> int
val pp : Format.formatter -> map -> unit
