(** Content-addressed fingerprints of the typed IR: a stable hash per
    function covering its structure, types, transitive callees and the
    analysis context, excluding source locations and dense variable ids
    — so whitespace/comment edits keep every fingerprint while a body
    edit invalidates the edited function and its transitive callers.
    Moves keep fingerprints but not summaries: summaries are keyed by
    {!summary_fn}, which also pins source locations. *)

type t

(** Fingerprint every function of [p] under [cfg] (builds a throwaway
    context with the frozen program-order cell numbering). *)
val make : Astree_core.Config.t -> Astree_frontend.Tast.program -> t

(** Fingerprint against an existing, cell-pre-filled context. *)
val of_actx : Astree_core.Transfer.actx -> t

(** Digest of every result-affecting configuration field ([jobs] and
    [summary_cache] excluded: both are result-neutral). *)
val config_digest : Astree_core.Config.t -> string

(** The shared context digest: configuration, target, struct layouts,
    volatile-input ranges, entry point, frozen cell numbering. *)
val context : t -> string

(** Fingerprint of one function; [None] when not cacheable (on a call
    cycle or calling an unknown function). *)
val fn : t -> string -> string option

(** What a function's summaries are keyed by: {!fn} together with a
    closure digest of the source locations (file, line, column) of the
    function and its transitive callees.  Replayed alarms carry those
    locations, so a summary computed before a move must not be reused
    after it. *)
val summary_fn : t -> string -> string option

(** Whole-program fingerprint — names the on-disk store file. *)
val program : t -> string

(** {1 Token writers} (also used by summary keys) *)

val add_var : Buffer.t -> Astree_frontend.Tast.var -> unit
val add_lval : Buffer.t -> Astree_frontend.Tast.lval -> unit

(** Writes the source locations (file, line, column) of an lvalue and of
    every lvalue and expression inside it, in traversal order — the
    locations an alarm raised while evaluating it may carry.  The
    sequence is unambiguous only after {!add_lval} of the same lvalue. *)
val add_lval_locs : Buffer.t -> Astree_frontend.Tast.lval -> unit
