(** The iterator (Sect. 5.3–5.5): abstract execution by induction on the
    abstract syntax, with iteration and checking modes, least-fixpoint
    approximation with widening and narrowing, loop unrolling, trace
    partitioning and polyvariant function inlining. *)

(** Raised on programs outside the subset's analyzable fragment
    (recursion, calls to unknown functions, ...). *)
exception Analysis_error of string

(** Flow-separated analysis outcome of a statement or block; [o_norm]
    is a disjunction of abstract states (a singleton except under trace
    partitioning, Sect. 7.1.5).  The session data types below are
    defined in [Transfer] (they are carried by {!Transfer.session}) and
    re-exported here, their historical home. *)
type outcome = Transfer.outcome = {
  o_norm : Astate.t list;
  o_brk : Astate.t;
  o_cont : Astate.t;
  o_ret : Astate.t;
  o_retv : Astree_domains.Itv.t;
}

(** {1 Function-summary cache (Astree_incremental)}

    Context-sensitive polyvariant inlining (Sect. 5.4) re-analyzes a
    callee for every call context; the summary cache pays for each
    distinct (callee fingerprint, abstract entry state) pair once.  The
    iterator is storage-agnostic: the incremental subsystem installs
    {!Transfer.session.ses_memo}; a hit replays the recorded side
    effects and is observationally identical to re-analysis. *)

(** Everything one analyzed call produced: the state at the return
    point, the merged return value, and the side effects on the
    context's bookkeeping.  Pure data — marshalled into the on-disk
    store. *)
type summary = Transfer.summary = {
  sm_exit : Astate.t;
  sm_retv : Astree_domains.Itv.t;
  sm_delta : Transfer.capture_delta;
}

(** Cache key: callee content fingerprint (covers the analysis
    configuration) folded with the source locations of the callee and
    its transitive callees, digest of the abstract entry state with the
    by-reference bindings and their locations, and the alarm-collector
    mode — iteration-mode and checking-mode results are never
    conflated. *)
type summary_key = Transfer.summary_key = {
  sk_fn : string;
  sk_entry : string;
  sk_checking : bool;
}

type call_memo = Transfer.call_memo = {
  cm_key :
    fname:string ->
    checking:bool ->
    Astate.t ->
    Transfer.binds ->
    summary_key option;
      (** [None]: this call is not cacheable (no fingerprint) *)
  cm_find : summary_key -> summary option;
  cm_add : summary_key -> summary -> unit;
  cm_hits : int ref;
  cm_misses : int ref;
  cm_want : string -> bool;
      (** gate: is this callee worth memoizing at all?  Computed once
          per session from the transitive inlined size of each function
          against {!memo_min_stmts} *)
}

(** Minimal transitive inlined statement count of a callee before
    memoization is worth the entry-state digest. *)
val memo_min_stmts : int ref

val exec_stmt :
  Transfer.actx ->
  part:bool ->
  stack:string list ->
  Transfer.binds ->
  Astate.t list ->
  Astree_frontend.Tast.stmt ->
  outcome

val exec_block :
  Transfer.actx ->
  part:bool ->
  stack:string list ->
  Transfer.binds ->
  Astate.t list ->
  Astree_frontend.Tast.block ->
  outcome

(** Run the abstract interpreter from the program entry point, in
    checking mode (loops internally recompute their invariants in
    iteration mode first, Sect. 5.4); returns the program-exit state.
    Loop invariants are recorded in the context. *)
val run : Transfer.actx -> Astate.t
