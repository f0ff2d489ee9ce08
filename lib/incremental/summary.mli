(** Function-summary cache: exact-key memoization of polyvariant call
    analyses, with optional cross-run persistence ({!Store}).  Keys are
    (callee fingerprint with source locations, abstract entry-state
    digest, checking mode) — equality of keys proves a hit equivalent
    to re-analysis. *)

module F = Astree_frontend
module C = Astree_core

(** Digest of an exact abstract entry state with its by-reference
    bindings: MD5 of a canonical encoding — location-free for the state,
    with the source locations inside each bound lvalue, which the
    callee may raise alarms at — canonical across processes and runs.  The environment and pack maps are
    Merkle-digested ({!Astree_core.Ptmap.digest}), so the cost follows
    what changed since the last digested state. *)
val entry_digest : C.Astate.t -> C.Transfer.binds -> string

(** Key derivation used by the installed memo; [None] when the callee
    has no fingerprint (recursive / unknown). *)
val key_fn :
  Fingerprint.t ->
  fname:string ->
  checking:bool ->
  C.Astate.t ->
  C.Transfer.binds ->
  C.Iterator.summary_key option

(** A live cache session: the fingerprints, the table and its memo
    interface, plus store-load accounting. *)
type session

(** Fingerprint the program, populate the table (from the analysis
    session's [ses_preload] first, then the on-disk store under
    [Cache_dir], keep-first) and install it via the session's
    [ses_memo]. *)
val attach :
  C.Transfer.session -> C.Config.t -> F.Tast.program -> session

(** Uninstall the table, persisting it first under [Cache_dir] unless
    [save:false] — and only when the table holds a key the loaded store
    lacks, so a run that added nothing writes nothing; when the analysis
    session has [ses_collect_tables] set, also records the final table
    in its [ses_tables].  Returns the run's cache counters. *)
val detach : ?save:bool -> C.Config.t -> session -> C.Analysis.cache_stats

(** The [Analysis.cache_driver] implementation: attach, run, detach,
    and fill [s_cache] in the result's statistics. *)
val driver :
  C.Transfer.session ->
  C.Config.t ->
  F.Tast.program ->
  (unit -> C.Analysis.result) ->
  C.Analysis.result

(** Install {!driver} as [Analysis.cache_driver]. *)
val register : unit -> unit
