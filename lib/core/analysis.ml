(** Top-level analysis driver: preprocessing phase (Sect. 5.1) followed by
    the analysis phase (Sect. 5.2), producing alarms, statistics and the
    saved loop invariants. *)

module F = Astree_frontend
module D = Astree_domains
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace

(* Exception-safe phase span: the end event is emitted on every exit so
   the --trace file always balances, even when the frontend raises. *)
let in_span (kind : string) (f : unit -> 'a) : 'a =
  if not !Trace.enabled then f ()
  else begin
    Trace.span_begin kind;
    Fun.protect ~finally:(fun () -> Trace.span_end kind) f
  end

(** Summary-cache effectiveness counters, present only when a cache was
    enabled for the run — [pp_stats] output is byte-identical to the
    cache-less analyzer otherwise. *)
type cache_stats = {
  c_hits : int;
  c_misses : int;
  c_entries : int;     (** summaries this run computed *)
  c_loaded : int;      (** summaries read back from the on-disk store *)
  c_load_time : float; (** seconds spent loading the store *)
  c_save_time : float; (** seconds spent saving the store *)
}

(** Record of a degraded run, filled by [Astree_robust.Degrade] when a
    resource budget tripped (or the run was interrupted) and the
    analysis finished with shed precision.  [None] for ordinary runs. *)
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
  r_alarms : Alarm.t list;
  r_final : Astate.t;
  r_actx : Transfer.actx;
  r_stats : stats;
}

let n_alarms r = List.length r.r_alarms

(** The list of useful octagon packs, reusable via
    [Config.useful_packs_only] (Sect. 7.2.2). *)
let useful_octagon_packs (r : result) : int list =
  List.sort Int.compare
    (List.map fst (Ptmap.bindings r.r_actx.Transfer.oct_useful))

(** The recorded loop invariants, sorted by loop id. *)
let invariants (r : result) : (int * Astate.t) list =
  List.sort
    (fun (x, _) (y, _) -> Int.compare x y)
    (Ptmap.bindings r.r_actx.Transfer.invariants)

(** Installed by [Astree_incremental.Summary.register]: when
    [Config.cache_enabled cfg], the driver fingerprints the program,
    attaches the summary table to the session (loading the on-disk store
    if configured), runs the wrapped analysis and fills [s_cache].  A
    hook rather than a direct call so the core library does not depend
    on the incremental subsystem. *)
let cache_driver :
    (Transfer.session -> Transfer.prepared -> (unit -> result) -> result)
    option
    ref =
  ref None

(** Program and pack measures of a context; no time, cache or
    degradation recorded. *)
let context_stats (actx : Transfer.actx) (p : F.Tast.program) : stats =
  let pk = actx.Transfer.packs in
  {
    s_globals_before = List.length p.F.Tast.p_globals;
    s_globals_after = List.length p.F.Tast.p_globals;
    s_cells = Cell.count actx.Transfer.intern;
    s_stmts = F.Tast.program_size p;
    s_oct_packs = List.length pk.Packing.octs;
    s_oct_useful = Ptmap.cardinal actx.Transfer.oct_useful;
    s_ell_packs = List.length pk.Packing.ells;
    s_dt_packs = List.length pk.Packing.dts;
    s_time = 0.;
    s_cache = None;
    s_degraded = None;
  }

(* --metrics gauges: set by the coordinator, excluded from worker deltas *)
let set_gauges (r : result) : unit =
  let s = r.r_stats in
  Metrics.set_gauge "analysis.cells" s.s_cells;
  Metrics.set_gauge "analysis.stmts" s.s_stmts;
  Metrics.set_gauge "analysis.oct_packs" s.s_oct_packs;
  Metrics.set_gauge "analysis.oct_useful" s.s_oct_useful;
  Metrics.set_gauge "analysis.ell_packs" s.s_ell_packs;
  Metrics.set_gauge "analysis.dt_packs" s.s_dt_packs;
  Metrics.set_gauge "analysis.alarms" (List.length r.r_alarms)

(* Run the iterator on a prepared context and collect the result. *)
let analyze_prepared (actx : Transfer.actx) (p : F.Tast.program) : result =
  let t0 = Unix.gettimeofday () in
  actx.Transfer.session.Transfer.ses_live <- Some actx;
  let r_final = in_span "phase.iterate" (fun () -> Iterator.run actx) in
  let s_time = Unix.gettimeofday () -. t0 in
  let r_alarms = Alarm.to_list actx.Transfer.alarms in
  let r_stats = { (context_stats actx p) with s_time } in
  let r = { r_alarms; r_final; r_actx = actx; r_stats } in
  set_gauges r;
  r

(** Analyze a typed program under the hooks of [?session] (a fresh
    session has none), wrapping the run in the summary-cache driver
    when caching is enabled. *)
let analyze ?session ?(cfg = Config.default) (p : F.Tast.program) : result =
  let session =
    match session with Some s -> s | None -> Transfer.new_session ()
  in
  in_span "phase.analyze" (fun () ->
      let prepared = Transfer.prepare cfg p in
      let core () =
        analyze_prepared (Transfer.make_actx ~session ~prepared cfg p) p
      in
      match !cache_driver with
      | Some driver when Config.cache_enabled cfg -> driver session prepared core
      | _ -> core ())

(* What the CLI prints and the daemon refuses a request with. *)
let diagnosis : exn -> string option = function
  | F.Lexer.Error (m, l) | F.Parser.Error (m, l) | F.Typecheck.Error (m, l) ->
      Some (Fmt.str "%a: %s" F.Loc.pp l m)
  | F.Preproc.Error (m, l) ->
      Some (Fmt.str "%a: preprocessor: %s" F.Loc.pp l m)
  | Iterator.Analysis_error m -> Some m
  | _ -> None

(** Frontend pipeline: preprocess, parse, link, type-check, simplify. *)
let compile ?(target = F.Ctypes.default_target) ?(main = "main")
    (sources : (string * string) list) : F.Tast.program * F.Simplify.stats =
  let ast = in_span "phase.parse" (fun () -> F.Linker.parse_and_link sources) in
  let p =
    in_span "phase.typecheck" (fun () ->
        F.Typecheck.elab_program ~target ~main ast)
  in
  in_span "phase.simplify" (fun () -> F.Simplify.run p)

(** Analyze C sources given as (filename, contents) pairs. *)
let analyze_sources ?(cfg = Config.default) ?(main = "main")
    (sources : (string * string) list) : result =
  let p, sstats = compile ~main sources in
  let r = analyze ~cfg p in
  {
    r with
    r_stats =
      {
        r.r_stats with
        s_globals_before = sstats.F.Simplify.globals_before;
        s_globals_after = sstats.F.Simplify.globals_after;
      };
  }

(** Analyze a single in-memory source string. *)
let analyze_string ?(cfg = Config.default) ?(main = "main") ?(file = "<input>")
    (src : string) : result =
  analyze_sources ~cfg ~main [ (file, src) ]

(* Field labels below match the keys of the --format json output
   (ISSUE 5): a reader can grep a JSON report and the text report with
   the same names. *)

let pp_cache_stats ppf (c : cache_stats) =
  Fmt.pf ppf
    "summary cache: hits: %d; misses: %d; entries: %d; loaded: %d;@ \
     load_time: %.3fs; save_time: %.3fs"
    c.c_hits c.c_misses c.c_entries c.c_loaded c.c_load_time c.c_save_time

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "globals_before: %d; globals_after: %d; cells: %d; statements: %d;@ \
     octagon_packs: %d; octagon_useful: %d; ellipsoid_packs: %d; \
     decision_tree_packs: %d;@ time: %.3fs"
    s.s_globals_before s.s_globals_after s.s_cells s.s_stmts s.s_oct_packs
    s.s_oct_useful s.s_ell_packs s.s_dt_packs s.s_time;
  (match s.s_cache with
  | None -> ()
  | Some c -> Fmt.pf ppf "@\n%a" pp_cache_stats c);
  match s.s_degraded with
  | None -> ()
  | Some d ->
      Fmt.pf ppf
        "@\ndegraded: reason: %s; level: %d; shed_octagon_packs: %d; \
         shed_ellipsoid_packs: %d; shed_decision_tree_packs: %d%s%s"
        d.dg_reason d.dg_level d.dg_shed_oct_packs d.dg_shed_ell_packs
        d.dg_shed_dt_packs
        (if d.dg_partitioning_disabled then "; partitioning_disabled" else "")
        (if d.dg_widening_accelerated then "; widening_accelerated" else "")

let pp_report ppf ((alarms, stats) : Alarm.t list * stats) =
  Fmt.pf ppf "%d alarm(s)@\n%a@\n%a" (List.length alarms)
    Fmt.(list ~sep:(any "@\n") Alarm.pp)
    alarms pp_stats stats

let pp_result ppf (r : result) = pp_report ppf (r.r_alarms, r.r_stats)
