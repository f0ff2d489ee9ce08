(** Request semantics of the analysis server: the analyze-request
    options, their mapping to {!Astree_core.Config.t}, the one analysis
    entry of the CLI and the daemon ({!analyze}), and the job a daemon
    worker runs for one request.

    The one-shot CLI analyzes through {!analyze} too, so a request
    forwarded to the daemon and the same invocation run in-process
    resolve to the same analysis, or to the same report record,
    multi-task programs included — the foundation of the client-mode
    byte-parity guarantee. *)

module C = Astree_core
module F = Astree_frontend

(** {1 Options} *)

(** Mirror of the [astree] analysis flags (domain toggles, iteration
    parameters, task entry points, budget, cache selection).  [`Default]
    cache means "the caller did not say": the one-shot CLI resolves it
    to [Cache_off], the daemon to its summary store directory. *)
type options = {
  o_no_oct : bool;
  o_no_ell : bool;
  o_no_dt : bool;
  o_no_clock : bool;
  o_no_lin : bool;
  o_no_thresholds : bool;
  o_unroll : int;
  o_partition : string list;
  o_tasks : string list;
      (** [--tasks]: the entry points of a multi-task program; [[]] =
          the sources' ["/* astree-task: ... */"] markers *)
  o_max_dtree_bools : int;
  o_useful_packs : int list;
  o_jobs : int;  (** [0] = one worker per core, resolved server-side *)
  o_timeout : float;
  o_max_mem : int;
  o_cache : [ `Default | `Off | `Dir of string ];
}

val default_options : options

val options_to_json : options -> Json.t
(** Only non-default members are emitted, so requests stay small
    ([o_tasks] as ["tasks"] when non-empty). *)

val options_of_json : Json.t -> options
(** Missing members keep their default; unknown members and values are
    ignored (a ["cache"] of ["mem"], from older clients, reads as
    [`Default]). *)

val config_of : options -> sources:(string * string) list -> C.Config.t
(** The flag-to-configuration mapping of the CLI, including the
    ["/* astree-partition: ... */"] marker scan of the sources when no
    explicit partition list is given. *)

(** {1 Analyses} *)

val source_digest : main:string -> (string * string) list -> string
(** Hex digest identifying a compiled program (sources + entry point);
    keys the daemon's dedup. *)

(** One request's report and, when this call analyzed, the typed
    program and the result it came from. *)
type analyzed = {
  a_report : Report.t;
  a_run : (F.Tast.program * C.Analysis.result) option;
      (** [None] when a report record answered *)
}

val analyze :
  ?reuse:bool -> options -> main:string -> (string * string) list -> analyzed
(** The one analysis of the CLI and the daemon.  Under a [`Dir DIR]
    cache the report is first looked up as a report record
    ([DIR/<key>.report], {!Astree_incremental.Store.find_record}),
    keyed by the sources' names and bytes, the entry point, the
    explicit task list, [Fingerprint.config_digest] of the
    configuration before the sources' markers, {!Report.version} and
    the OCaml version: a hit compiles nothing and reports this run's
    [time] and the cache block of a fully warm run (1 hit, 0 misses,
    0 entries, 1 loaded, [save_time] 0), bumping [cache.hits].  With
    [~reuse:false] (a run that needs the result itself: the CLI's
    report extras) no record is read or published.

    Otherwise it resolves the configuration ({!config_of}) and the task
    list ([o_tasks], else the sources' ["/* astree-task: ... */"]
    markers in document order, the first occurrence winning), compiles
    the program, runs {!Astree_conc.Fixpoint.analyze} for two or more
    tasks and {!Astree_parallel.Scheduler.analyze} otherwise, and under
    a [`Dir] cache publishes the report as the key's record unless the
    run degraded or [~reuse:false].  Frontend and analysis errors escape as raised
    ({!Astree_core.Analysis.diagnosis} names them, bad task names
    included), and so does an interrupt of a multi-task run
    ([Budget.Tripped Interrupted]); neither publishes a record. *)

(** {1 Worker jobs} *)

(** The empty type: a [never list] can only be [[]]. *)
type never = |

(** One analyze request, marshalled to a pool worker.  No summary
    travels with it: the worker reads them from the store directory
    named by [w_options]. *)
type work = {
  w_sources : (string * string) list;
  w_main : string;
  w_options : options;
  w_preload : never list;
      (** always [[]]; kept because the layer benchmark
          ([perfbench/layers.ml]) builds the record *)
  w_strip_cache : bool;
      (** the request did not ask for a cache: run with the daemon's
          store but strip its counters from the report (byte parity) *)
}

(** The reply: a rendered report and what the daemon logs of it.  The
    metrics and trace events of the run travel beside it, captured by
    the pool's {!Astree_obs.Observed.job} wrapper. *)
type served = {
  sv_report : string;  (** JSON report object, no trailing newline *)
  sv_exit : int;
  sv_alarms : int;
  sv_fingerprint : string;
  sv_degraded : bool;
  sv_loaded : int;  (** summaries the run read from the store *)
  sv_time : float;  (** seconds spent serving, compile included *)
}

type outcome = Served of served | Refused of string

val serve : work -> outcome
(** Run one request (in a pool worker): {!analyze} on one core
    ([o_jobs = 1]; a multi-task program's fixpoint runs its per-task
    runs in-process) — under a [`Dir] cache, answering from the
    request's report record when there is one, else reading the
    summaries its keys hit from the store and publishing the ones it
    computed and the record — and package the report.  Called in-process (tests, the layer benchmark)
    it leaves the caller's trace sink and registry as any analysis
    does.  An error that {!Astree_core.Analysis.diagnosis} names (bad
    input, a call without a body) and a [Sys_error] come back as
    [Refused] with that message; anything else escapes, and the pool
    replies with its text. *)
