(** Top-level analysis driver: the preprocessing phase (Sect. 5.1)
    followed by the analysis phase (Sect. 5.2). *)

(** Summary-cache effectiveness counters, present only when a cache was
    enabled for the run. *)
type cache_stats = {
  c_hits : int;
  c_misses : int;
  c_entries : int;     (** summaries this run computed *)
  c_loaded : int;      (** summaries read back from the on-disk store *)
  c_load_time : float; (** seconds spent loading the store *)
  c_save_time : float; (** seconds spent saving the store *)
}

(** Record of a degraded run, filled by [Astree_robust.Degrade] when a
    resource budget tripped and precision was shed; [None] otherwise. *)
type degraded = {
  dg_reason : string;  (** "timeout", "memory" or "interrupted" *)
  dg_level : int;      (** ladder step reached, 1..3 (0 = interrupted) *)
  dg_shed_oct_packs : int;
  dg_shed_ell_packs : int;
  dg_shed_dt_packs : int;
  dg_partitioning_disabled : bool;
  dg_widening_accelerated : bool;
}

type stats = {
  s_globals_before : int;  (** globals before unused-variable deletion *)
  s_globals_after : int;
  s_cells : int;           (** abstract cells after array expansion *)
  s_stmts : int;           (** program size in IR statements *)
  s_oct_packs : int;
  s_oct_useful : int;      (** packs that improved precision (7.2.2) *)
  s_ell_packs : int;
  s_dt_packs : int;
  s_time : float;          (** analysis wall-clock seconds *)
  s_cache : cache_stats option;
  s_degraded : degraded option;
}

type result = {
  r_alarms : Alarm.t list;   (** deduplicated, sorted by location *)
  r_final : Astate.t;        (** abstract state at program exit *)
  r_actx : Transfer.actx;    (** analysis context: invariants, packs, ... *)
  r_stats : stats;
}

val n_alarms : result -> int

(** Program and pack measures of a context, with no time, cache or
    degradation recorded. *)
val context_stats : Transfer.actx -> Astree_frontend.Tast.program -> stats

(** The ids of the octagon packs that improved precision, reusable via
    [Config.useful_packs_only] (Sect. 7.2.2). *)
val useful_octagon_packs : result -> int list

(** Analyze an already-compiled program, sequentially at every
    [cfg.jobs].  [?session] threads an existing {!Transfer.session}
    through (the analysis server passes one per request); a fresh
    session is created otherwise, so concurrent analyses in one process
    never share hooks.  [?prepared] is used when it was prepared for
    this program and configuration ({!Transfer.prepared_for}); the run
    prepares its own otherwise, so a kept record and a fresh one take
    one code path. *)
val analyze :
  ?session:Transfer.session ->
  ?prepared:Transfer.prepared ->
  ?cfg:Config.t ->
  Astree_frontend.Tast.program ->
  result

(** The plain-data part of a result: what a pool worker ships instead
    of the result, whose context holds lazies, first-class modules and
    session hooks. *)
module Reply : sig
  type t = {
    rp_alarms : Alarm.t list;
    rp_final : Astate.t;
    rp_stats : stats;
    rp_invariants : (int, Astate.t) Hashtbl.t;  (** loop id -> invariant *)
    rp_oct_useful : (int, unit) Hashtbl.t;
    rp_joins : int;
  }

  val detach : result -> t

  (** Absorb a reply into a context the receiver built with
      {!Transfer.make_actx}: invariants join point-wise, useful packs
      union, join counts add.  Cell ids depend only on the program and
      the configuration ({!Transfer.prepared}), so the sender's states
      mean the same here.
      @raise Invalid_argument if the sender numbered other cells. *)
  val attach : Transfer.actx -> t -> unit
end

(** Summary-cache driver hook, installed by
    [Astree_incremental.Summary.register].  Wraps the analysis thunk
    when [Config.cache_enabled], with the record the run is prepared
    from. *)
val cache_driver :
  (Transfer.session -> Transfer.prepared -> (unit -> result) -> result)
  option
  ref

(** Frontend pipeline: preprocess, parse, link, type-check, simplify.
    Sources are (filename, contents) pairs. *)
val compile :
  ?target:Astree_frontend.Ctypes.target ->
  ?main:string ->
  (string * string) list ->
  Astree_frontend.Tast.program * Astree_frontend.Simplify.stats

(** Compile and analyze C sources. *)
val analyze_sources :
  ?cfg:Config.t -> ?main:string -> (string * string) list -> result

(** Compile and analyze one in-memory source string. *)
val analyze_string :
  ?cfg:Config.t -> ?main:string -> ?file:string -> string -> result

val pp_cache_stats : Format.formatter -> cache_stats -> unit
val pp_stats : Format.formatter -> stats -> unit
val pp_result : Format.formatter -> result -> unit
