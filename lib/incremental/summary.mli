(** The call memo's keyed tier: exact-key summaries of polyvariant call
    analyses, persisted across runs in a {!Store}.  Keys are (callee
    fingerprint with position-relative source locations, digest of the
    entry state restricted to the call's frame with the by-reference
    bindings, checking mode) — equality of keys proves a hit equivalent
    to re-analysis.  Summaries are in frame coordinates, and the store
    keeps their alarm locations relative to their functions, so they
    replay in any program or revision with the same callee and frame. *)

module F = Astree_frontend
module C = Astree_core

(** Digest of a whole abstract state of a context in the key encoding
    (every cell and pack of the program, by name): canonical across
    processes, runs and renumberings. *)
val entry_digest : C.Transfer.actx -> C.Astate.t -> string

(** The fingerprints of a prepared program and the frame names built
    from them: computed on first use and kept in the record, so a run
    fingerprints its program once. *)
val keys : C.Transfer.prepared -> Fingerprint.t * C.Frame.names

(** The [Analysis.cache_driver] implementation: fingerprint the program
    ({!keys}), open the store under [Cache_dir] (indexes only: a summary is read
    when its key is looked up), install the keyed tier in the session
    ([ses_keyed]), run, then uninstall it and publish the summaries the
    run computed — a run that computed none writes nothing, and a failed
    run nothing at all — and fill [s_cache] in the result's
    statistics. *)
val driver :
  C.Transfer.session ->
  C.Transfer.prepared ->
  (unit -> C.Analysis.result) ->
  C.Analysis.result

(** Install {!driver} as [Analysis.cache_driver].  In the analyzer only
    [Scheduler.analyze] calls it; the ref stays for [perfbench/layers.ml]
    and the golden tests, which call it and then [Analysis.analyze]. *)
val register : unit -> unit
