(** The full abstract state: memory environment, relational packs and
    the hidden clock variable of the clocked domain (Sect. 6.2.1). *)

type t = {
  bot : bool;
  env : Env.t;
  rel : Relstate.t;
  clock : Astree_domains.Itv.t;  (** range of the hidden clock counter *)
}

val bottom : t
val is_bot : t -> bool

val make :
  env:Env.t -> rel:Relstate.t -> clock:Astree_domains.Itv.t -> t

val join : t -> t -> t
val meet : t -> t -> t

(** Widening with thresholds (Sect. 7.1.2), except that an unstable
    upper bound of the clock goes straight to [max_clock], the bound
    {!Transfer.wait} meets it with (DESIGN.md §6). *)
val widen :
  thresholds:Astree_domains.Thresholds.t -> max_clock:int -> t -> t -> t

val narrow : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

(** The floating iteration perturbation F-hat of Sect. 7.1.4: enlarge
    every float interval bound by a relative epsilon. *)
val perturb : float -> t -> t
