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
  r_actx : Transfer.actx;
      (** analysis context: invariants, packs, ...; a pool worker ships
          its bookkeeping as one delta ({!Transfer.run_delta}) *)
  r_stats : stats;
}

val n_alarms : result -> int

(** Program and pack measures of a context, with no time, cache or
    degradation recorded. *)
val context_stats : Transfer.actx -> Astree_frontend.Tast.program -> stats

(** The ids of the octagon packs that improved precision, reusable via
    [Config.useful_packs_only] (Sect. 7.2.2). *)
val useful_octagon_packs : result -> int list

(** The recorded loop invariants, sorted by loop id. *)
val invariants : result -> (int * Astate.t) list

(** Analyze an already-compiled program under the hooks of [?session]
    (the split, the tick, the interference context), which
    [Astree_parallel.Scheduler.analyze] decides for every analysis the
    analyzer starts; a fresh session, with none, is created otherwise.
    Under [Config.cache_enabled cfg] the run goes through
    {!cache_driver} when it is set, with the record the run prepares
    ({!Transfer.prepare}). *)
val analyze :
  ?session:Transfer.session ->
  ?cfg:Config.t ->
  Astree_frontend.Tast.program ->
  result

(** Set the [analysis.*] gauges from a result: every analysis does, and
    the multi-task fixpoint does from its combined result. *)
val set_gauges : result -> unit

(** The one bridge to the keyed tier: set by
    [Astree_incremental.Summary.register] (see there who calls it), it
    wraps the analysis thunk when [Config.cache_enabled], with the
    record the run is prepared from. *)
val cache_driver :
  (Transfer.session -> Transfer.prepared -> (unit -> result) -> result)
  option
  ref

(** The one-line diagnosis of a lexer, parser, type or preprocessor
    error or an [Iterator.Analysis_error]; [None] for other exceptions. *)
val diagnosis : exn -> string option

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
val pp_report : Format.formatter -> Alarm.t list * stats -> unit
(** The text report of these alarms and statistics: the alarm count,
    one line per alarm, then {!pp_stats}. *)

val pp_result : Format.formatter -> result -> unit
(** {!pp_report} of the result's alarms and statistics. *)
