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
    distinct (callee fingerprint, entry state restricted to the callee's
    frame) pair once.  The iterator is storage-agnostic: the incremental
    subsystem installs {!Transfer.session.ses_memo}, which wraps the
    analysis of each wanted call body; a hit replays the recorded
    effects and is observationally identical to re-analysis.  The types
    are defined in [Transfer] and re-exported here. *)

type summary = Transfer.summary = {
  sm_exit : Astate.t;
  sm_retv : Astree_domains.Itv.t;
  sm_alarms : (string * Alarm.t) list;
  sm_invariants : (int * Astate.t) list;
  sm_oct_useful : int list;
  sm_joins : int;
  sm_itf_writes : (int * Astree_domains.Itv.t) list;
}

type summary_key = Transfer.summary_key = {
  sk_fn : string;
  sk_entry : string;
  sk_checking : bool;
}

type call_memo = Transfer.call_memo = {
  cm_names : Frame.names;
  cm_want : string -> bool;
  cm_call :
    Transfer.actx ->
    fname:string ->
    Transfer.binds ->
    Astate.t ->
    (unit -> Astate.t * Astree_domains.Itv.t) ->
    (Astate.t * Astree_domains.Itv.t)
    * (summary * (string * Astree_frontend.Loc.t -> Astree_frontend.Loc.t))
      option;
}

(** Minimal transitive inlined statement count of a callee before
    memoization is worth a key. *)
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
