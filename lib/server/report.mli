(** The analyzer's JSON report, shared by the one-shot CLI and the
    analysis daemon.

    [astree --format json] and an [astreed] worker must produce the
    same bytes for the same analysis — the server-mode parity tests
    diff them — so the rendering lives here, in one place, and both
    entry points call it. *)

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

val render :
  ?metrics:bool ->
  ?interference:interference ->
  ?fingerprint:string ->
  C.Analysis.result ->
  string
(** The whole result as one JSON object (no trailing newline): alarms
    (with provenance when recorded), statistics (cache counters always
    included when a cache ran), the useful-octagon-pack ids, the
    deterministic result fingerprint ([Merge.fingerprint], the digest
    the equivalence tests compare), an ["interference"] block for
    multi-task runs, for degraded or interrupted runs a ["degraded"]
    block, and with [~metrics:true] the full metrics registry.  A caller
    that already holds the result's fingerprint passes it as
    [~fingerprint] so it is not computed twice. *)

val strip_cache : C.Analysis.result -> C.Analysis.result
(** Drop the cache counters from the result's statistics.  The daemon
    runs requests that did not ask for a cache against its summary
    store; stripping makes such replies byte-comparable with a
    cache-less one-shot run. *)

val exit_code : C.Analysis.result -> int
(** The CLI exit-code convention: [0] clean, [1] alarms, [3]
    degraded-but-complete, [130] interrupted. *)
