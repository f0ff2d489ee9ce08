(** The iterator (Sect. 5.3–5.5): abstract execution by induction on the
    abstract syntax, with iteration and checking modes, least-fixpoint
    approximation with widening and narrowing, loop unrolling, trace
    partitioning and polyvariant function inlining. *)

(** Raised on programs outside the subset's analyzable fragment
    (recursion, calls to unknown functions, ...). *)
exception Analysis_error of string

(** Flow-separated analysis outcome of a statement or block; [o_norm]
    is a disjunction of abstract states (a singleton except under trace
    partitioning, Sect. 7.1.5). *)
type outcome = {
  o_norm : Astate.t list;
  o_brk : Astate.t;
  o_cont : Astate.t;
  o_ret : Astate.t;
  o_retv : Astree_domains.Itv.t;
}

(** [exec_stmt a ~part ~stack ~sites binds sts s]: the outcome of [s]
    from the disjunction [sts], under the inlining [stack] (innermost
    first) and in a body whose call sites are [sites]: a call replays
    through the call memo ({!Memo.call}). *)
val exec_stmt :
  Transfer.actx ->
  part:bool ->
  stack:string list ->
  sites:Memo.sites ->
  Transfer.binds ->
  Astate.t list ->
  Astree_frontend.Tast.stmt ->
  outcome

val exec_block :
  Transfer.actx ->
  part:bool ->
  stack:string list ->
  sites:Memo.sites ->
  Transfer.binds ->
  Astate.t list ->
  Astree_frontend.Tast.block ->
  outcome

(** Run the abstract interpreter from the program entry point, in
    checking mode (loops internally recompute their invariants in
    iteration mode first, Sect. 5.4); returns the program-exit state.
    Loop invariants are recorded in the context. *)
val run : Transfer.actx -> Astate.t
