(** The iterator (Sect. 5.3–5.5): abstract execution by induction on the
    abstract syntax, with iteration and checking modes, least-fixpoint
    approximation with widening and narrowing, loop unrolling, trace
    partitioning and polyvariant function inlining. *)

(** Raised on programs outside the subset's analyzable fragment
    (recursion, calls to unknown functions, ...). *)
exception Analysis_error of string

(** Flow-separated analysis outcome of a statement or block; [o_norm]
    is a disjunction of abstract states (a singleton except under trace
    partitioning, Sect. 7.1.5).  Defined in [Transfer] and re-exported
    here, its historical home. *)
type outcome = Transfer.outcome = {
  o_norm : Astate.t list;
  o_brk : Astate.t;
  o_cont : Astate.t;
  o_ret : Astate.t;
  o_retv : Astree_domains.Itv.t;
}

(** {1 The call memo}

    Context-sensitive polyvariant inlining (Sect. 5.4) re-analyzes a
    callee for every call context.  The call memo replays a call whose
    framed input was seen before, through one capture-and-replay path
    with two tiers: the enclosing loop's slots for the call site, an
    exact tier with loop lifetime (DESIGN.md §6), and the keyed tier
    {!Transfer.session.ses_keyed} that [Astree_incremental] installs,
    with cross-run lifetime (§8).  A replay is observationally
    identical to re-analysis. *)

(** The keyed tier's key ({!Transfer.summary_key}). *)
type summary_key = Transfer.summary_key = {
  sk_fn : string;
  sk_entry : string;
  sk_checking : bool;
}

(** Minimal transitive inlined statement count of a callee before the
    keyed tier is worth a key. *)
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
