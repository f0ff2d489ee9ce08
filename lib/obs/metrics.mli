(** Unified metrics registry: named counters, wall-clock timers, gauges
    and log2 histograms, shared by every subsystem of the analyzer.

    This is the one place analysis-wide measurements live.  The
    per-domain [Profile] probes are thin wrappers over entries here, the
    iterator and the caches register their own counters, and the
    parallel subsystem ships worker-side {!snapshot} deltas back in job
    replies so a [-j n] report is as complete as a sequential one.

    {b Cost model.}  Bumping a counter is one record-field increment;
    timers only read the clock when {!timing} is set, so the default
    build pays one ref read per timed probe.  Creation ([counter],
    [timer], ...) hashes the name — create once at module init or in a
    cold path, never per event.

    {b Determinism.}  Counters of semantic analysis events (transfer
    applications, widenings, threshold hits, loops, inlined calls, cache
    traffic), gauges and histograms are functions of the analysis
    performed: a [-j n] run with delta shipping reports exactly the
    sequential values and {!render_json} with [~timers:false] is
    byte-stable across equivalent runs.  The multi-task interference
    fixpoint reports under [conc.*]: the [conc.rounds] counter (outer
    rounds run) and the [conc.tasks] / [conc.interference_vars] gauges
    (task and shared-variable count of the last multi-task run); its
    per-round trace spans are named [conc.round].  Two exceptions sit outside that
    contract: scheduling counters ([par.*] — a sequential run dispatches
    nothing) and work counters on sharing-elided paths ([oct.join]
    counts {e performed} pack joins, most of which the sequential run
    skips through the Ptmap physical-sharing short-cut that [Marshal]
    destroys for worker replies).  Timer values are wall-clock and never
    deterministic. *)

(** {1 Global switches} *)

val timing : bool ref
(** Gate for the wall-clock timers (counters are always on). *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find or create the counter [name].  The same name always yields the
    same entry. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Timers} *)

type timer

val timer : string -> timer

val start : unit -> float
(** Timestamp when {!timing} is set, else [0.]; pass the result to
    {!stop}. *)

val stop : timer -> float -> unit
(** Accumulate elapsed wall-clock seconds against a timer (no-op when
    {!timing} is unset). *)

val timer_value : timer -> float

(** {1 Gauges}

    Point-in-time values (program size, pack counts, alarm count) set by
    the coordinator at the end of a run; deltas exclude them. *)

val set_gauge : string -> int -> unit
val gauge_value : string -> int option

(** {1 Histograms}

    Log2-bucketed distributions of non-negative integer observations
    (e.g. fixpoint iteration counts per loop).  Bucket [i] counts
    observations [v] with [2^i <= v+1 < 2^(i+1)]. *)

type histogram

val histogram : string -> histogram
val observe : histogram -> int -> unit

(** {1 Snapshots, deltas and merging} *)

(** A pure-data copy of the registry (marshallable across processes),
    sorted by name. *)
type snapshot

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot
(** Registry-now minus the given earlier snapshot: counters, timers and
    histogram buckets subtract member-wise; gauges are excluded.  This
    is what a parallel worker ships back after running a job. *)

val absorb : snapshot -> unit
(** Merge a delta into the registry: counters, timers and histograms
    add; gauges overwrite.  Absorbing worker deltas in job order is
    deterministic because addition is commutative and the values
    themselves are deterministic. *)

val names : snapshot -> string list

(** {1 Export} *)

(** One registry entry as plain data — the seam external renderers (the
    Prometheus exposition in [lib/server/telemetry.ml]) consume without
    depending on the registry internals.  For counters and gauges the
    value is [x_int]; for timers, [x_time] (accumulated seconds); for
    histograms, [x_buckets] (log2 buckets: bucket [i] counts
    observations [v] with [2^i <= v+1 < 2^(i+1)]). *)
type export = {
  x_name : string;
  x_kind : [ `Counter | `Timer | `Gauge | `Hist ];
  x_int : int;
  x_time : float;
  x_buckets : int array;
}

val export : snapshot -> export list
(** The snapshot's entries as {!export} records, in snapshot (name)
    order. *)

val find_int : snapshot -> string -> int option
(** Value of the named counter or gauge in the snapshot, if present —
    e.g. pulling [cache.hits] out of a worker delta. *)

val render_json : ?timers:bool -> unit -> string
(** The whole registry as one JSON object
    [{"counters": {..}, "gauges": {..}, "histograms": {..},
    "timers": {..}}] with keys sorted, integers rendered exactly and
    timer seconds with 6 decimals.  With [~timers:false] the [timers]
    object is omitted and the output is byte-stable across equivalent
    runs (the determinism tests compare it directly). *)

val render_snapshot_json : ?timers:bool -> snapshot -> string
(** Same JSON shape as {!render_json}, over an explicit snapshot —
    typically a {!diff}, giving a per-interval (e.g. per-request)
    metrics object. *)

val reset : unit -> unit
(** Zero every entry (registrations survive). *)

val reset_named : string -> unit
(** Zero one entry by name (no-op if unregistered).  Used by wrappers
    such as [Profile.reset] that own a known slice of the registry. *)
