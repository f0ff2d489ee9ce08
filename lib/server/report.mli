(** The analyzer's report, shared by the one-shot CLI and the analysis
    daemon.

    [astree --format json] and an [astreed] worker must produce the
    same bytes for the same analysis — the server-mode parity tests
    diff them — and a report answered from a record must equal the
    analysis it was recorded from, so the report is one plain-data
    record ({!t}) and every rendering of it lives here. *)

module C = Astree_core

val json_escape : string -> string
val json_str : string -> string

(** Summary of a multi-task interference fixpoint, rendered as the
    report's ["interference"] block when present. *)
type interference = {
  i_tasks : int;
  i_rounds : int;
  i_stabilized : bool;
  i_shared : int;  (** shared-variable count *)
}

val pp_interference : Format.formatter -> interference -> unit
(** The text report's [interference fixpoint: ...] line (no newline). *)

val exit_code : C.Analysis.result -> int
(** The CLI exit-code convention: [0] clean, [1] alarms, [3]
    degraded-but-complete, [130] interrupted. *)

(** {1 The report record} *)

(** Everything the analyzer reports about one analysis, as plain data:
    built once from a result ({!of_result}), rendered as the JSON report
    ({!to_json}: [astree --format json] and the daemon reply) and as the
    text report ({!pp_text}), and kept in the store as a report record
    ([Service.analyze]). *)
type t = {
  alarms : C.Alarm.t list;  (** with their provenance, sorted *)
  stats : C.Analysis.stats;  (** with the cache and degraded blocks *)
  useful_packs : int list;  (** useful octagon pack ids (Sect. 7.2.2) *)
  fingerprint : string;
      (** the deterministic result fingerprint ([Merge.fingerprint],
          the digest the equivalence tests compare) *)
  interference : interference option;  (** multi-task runs only *)
  exit : int;  (** {!exit_code} of the result *)
}

val version : string
(** The record format's version, part of a record's key and header:
    changed whenever {!t} changes or the analyzer can report
    differently on the same sources and options. *)

val of_result : ?interference:interference -> C.Analysis.result -> t

val strip_cache : t -> t
(** Drop the cache counters from the statistics.  The daemon runs
    requests that did not ask for a cache against its summary store;
    stripping makes such replies byte-comparable with a cache-less
    one-shot run. *)

val to_json : ?metrics:bool -> t -> string
(** The whole report as one JSON object (no trailing newline): alarms
    (with provenance when recorded), statistics (cache counters always
    included when a cache ran), the useful-octagon-pack ids, the
    fingerprint, an ["interference"] block for multi-task runs, a
    ["degraded"] block for degraded or interrupted runs, and with
    [~metrics:true] the current metrics registry. *)

val pp_text : explain:bool -> verbose:bool -> Format.formatter -> t -> unit
(** The text report, each line flushed: {!C.Analysis.pp_report}, the
    interference line, with [~explain] every alarm's provenance, and
    with [~verbose] the cache counters and the useful pack ids. *)
