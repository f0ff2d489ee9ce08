(** Function-summary cache: exact-key memoization of polyvariant call
    analyses, with optional cross-run persistence ({!Store}).  Keys are
    (callee fingerprint with position-relative source locations, digest
    of the entry state restricted to the call's {!Frame} with the
    by-reference bindings, checking mode) — equality of keys proves a
    hit equivalent to re-analysis.  Summaries are in frame coordinates,
    so they replay in any program or revision with the same callee and
    frame. *)

module F = Astree_frontend
module C = Astree_core

(** Digest of a whole abstract state of a context in the key encoding
    (every cell and pack of the program, by name): canonical across
    processes, runs and renumberings. *)
val entry_digest : C.Transfer.actx -> C.Astate.t -> string

(** A live cache session: the fingerprints, the table, the opened store
    and the run's counters. *)
type session

(** Fingerprint the program, open the on-disk store under [Cache_dir]
    (indexes only: a summary is read when its key is looked up) and
    install the memo via the session's [ses_memo]. *)
val attach :
  C.Transfer.session -> C.Config.t -> F.Tast.program -> session

(** Uninstall the memo, publishing the summaries the run computed under
    [Cache_dir] unless [save:false] — a run that computed none writes
    nothing.  Returns the run's cache counters. *)
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
