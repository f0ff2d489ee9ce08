(** Unified metrics registry: named counters, wall-clock timers, gauges
    and log2 histograms, shared by every subsystem of the analyzer.

    This is the one place analysis-wide measurements live, and the one
    module that knows how an entry is rendered: the [--metrics] file
    and the daemon's [metrics] verb ({!render_json}) and the
    [--profile] table ({!render_profile}) all read the registry.  The domains, the iterator and the caches register their
    own entries (a probe [NAME] is a counter [NAME] plus a timer
    [NAME.time]), and the parallel subsystem ships worker-side
    {!snapshot} deltas back in job replies so a [-j n] report is as
    complete as a sequential one.

    {b Cost model.}  Bumping a counter is one record-field increment;
    timers only read the clock when {!timing} is set, so the default
    build pays one ref read per timed probe.  Creation ([counter],
    [timer], ...) hashes the name — create once at module init or in a
    cold path, never per event.

    {b Determinism.}  Counters of semantic analysis events (transfer
    applications, widenings, threshold hits, loops, inlined calls, cache
    traffic), gauges and histograms are functions of the analysis
    performed, and {!render_json} with [~timers:false] is byte-stable
    across equivalent runs.  A single analysis runs sequentially at
    every [-j], so its registry is exactly the [-j 1] one.  The
    multi-task interference fixpoint reports under [conc.*]: the
    [conc.rounds] counter (outer rounds run) and the [conc.tasks] /
    [conc.interference_vars] gauges (task and shared-variable count of
    the last multi-task run); its per-round trace spans are named
    [conc.round].  One exception sits outside the contract, and only
    where results come back from pool workers (batch and multi-task
    runs): [oct.join] counts {e performed} pack joins, and the merge of
    marshalled results cannot skip the joins that the Ptmap
    physical-sharing short-cut elides in-process.  Timer values are
    wall-clock and never deterministic. *)

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

val find_int : snapshot -> string -> int option
(** Value of the named counter or gauge in the snapshot, if present —
    e.g. pulling [cache.hits] out of a worker delta. *)

(** {1 Rendering} *)

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

val json_escape : string -> string
(** The body of a JSON string literal, without its quotes: the double
    quote, the backslash and newline get their short escapes, other
    control bytes [\u00XX].  The one escaper of the [--metrics] and
    [--trace] files. *)

val render_profile : unit -> string
(** The [--profile] table: a header line, then one row per registered
    timer, sorted by name, giving the timer's name, the value of the
    counter of the same stem (timer [NAME.time] pairs with counter
    [NAME]; 0 when there is none) and the timer's seconds. *)

val reset : unit -> unit
(** Zero every entry (registrations survive). *)

val reset_named : string -> unit
(** Zero one entry by name (no-op if unregistered). *)
