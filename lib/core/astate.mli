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
val widen : thresholds:Astree_domains.Thresholds.t -> t -> t -> t
val narrow : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

(** The floating iteration perturbation F-hat of Sect. 7.1.4: enlarge
    every float interval bound by a relative epsilon. *)
val perturb : float -> t -> t
