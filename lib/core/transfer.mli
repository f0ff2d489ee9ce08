(** Abstract transfer functions: assignments and guards over the full
    abstract state, with alarm reporting (Sect. 5.3, 6.1.3, 6.3).

    Integer results are checked against their type's range (overflowing
    values are "wiped out" with an alarm, not wrapped), floats are
    rounded outward per kind with overflow and invalid-operation alarms,
    divisors are checked for zero, array subscripts for bounds.  When
    the plain interval evaluation incurs no possible error, float
    expressions are refined through the linear forms of Sect. 6.3. *)

module F = Astree_frontend
module D = Astree_domains

(** Bindings of by-reference parameters to actual lvalues (function
    inlining, Sect. 5.4). *)
type binds = F.Tast.lval F.Tast.VarMap.t

(** {1 Session types (reentrancy seam)}

    The iterator's extension hooks — function-summary memo and
    resource-governor tick — live in a per-analysis {!session} record
    rather than module-global refs, so concurrent analyses in one
    process (the [astreed] daemon) cannot corrupt each other.  The data
    types are re-exported with equations by [Iterator], their historical
    home. *)

(** {1 Multi-task interference (Astree_conc seam)} *)

(** A shared cell, identified position-independently: root variable id
    and access path.  Marshals across processes and is stable across
    differing interner numberings. *)
type itf_key = int * Cell.step list

(** Interference context of one per-task run of a multi-task analysis
    (Miné's rely/guarantee iteration): [itf_rely] is joined into every
    read of a shared cell, [itf_shared] gates the read join and the
    value-copy fast paths, [itf_writes] collects the task's abstract
    writes to shared cells (the guarantee).  Installed via
    [session.ses_itf] by the outer fixpoint driver. *)
type itf = {
  itf_rely : (itf_key, D.Itv.t) Hashtbl.t;
  itf_shared : (int, unit) Hashtbl.t;
  itf_writes : (itf_key, D.Itv.t) Hashtbl.t;
}

(** Replayable side effects of one captured call (see the capture
    functions at the bottom of this interface). *)
type capture_delta = {
  cd_alarms : Alarm.t list;
  cd_invariants : (int * Astate.t) list;  (** sorted by loop id *)
  cd_oct_useful : int list;               (** sorted *)
  cd_joins : int;
  cd_itf_writes : (itf_key * D.Itv.t) list;
      (** shared-cell writes of the call (sorted by key), replayed into
          the guarantee collector on a cache hit *)
}

(** Flow-separated analysis outcome of a statement or block. *)
type outcome = {
  o_norm : Astate.t list;
  o_brk : Astate.t;
  o_cont : Astate.t;
  o_ret : Astate.t;
  o_retv : D.Itv.t;
}

(** Everything one analyzed call produced — pure data, marshalled into
    the on-disk store. *)
type summary = {
  sm_exit : Astate.t;
  sm_retv : D.Itv.t;
  sm_delta : capture_delta;
}

(** Cache key: callee fingerprint with the source locations of its
    code (replayed alarms carry them), digest of the abstract entry
    state + by-reference bindings with their locations, and the
    alarm-collector mode. *)
type summary_key = {
  sk_fn : string;
  sk_entry : string;
  sk_checking : bool;
}

type call_memo = {
  cm_key :
    fname:string -> checking:bool -> Astate.t -> binds ->
    summary_key option;
  cm_find : summary_key -> summary option;
  cm_add : summary_key -> summary -> unit;
  cm_hits : int ref;
  cm_misses : int ref;
  cm_want : string -> bool;
}

(** Per-analysis session: the hooks and cross-cutting mutable state of
    one analysis run.  Sessions make [Analysis] reentrant: the daemon
    creates one per request. *)
type session = {
  mutable ses_memo : call_memo option;
  mutable ses_tick_hook : (unit -> unit) option;
  mutable ses_ticks : int;
  mutable ses_preload : (summary_key * summary) list;
      (** summaries seeded into the memo before any store load *)
  mutable ses_collect_tables : bool;
      (** when set, [Summary.detach] records the final table below *)
  mutable ses_tables : (string * (summary_key * summary) list) list;
      (** (store key, entries) per cache attach, newest first *)
  mutable ses_live : actx option;
      (** context currently analyzed under this session *)
  mutable ses_itf : itf option;
      (** interference context of a multi-task per-task run; [None]
          keeps every transfer function on its single-task path *)
}

(** Analysis context shared by all transfer functions. *)
and actx = {
  prog : F.Tast.program;
  cfg : Config.t;
  session : session;
  packs : Packing.t;
  intern : Cell.interner;
  alarms : Alarm.collector;
  oct_useful : (int, unit) Hashtbl.t;
      (** octagon packs that improved precision (Sect. 7.2.2) *)
  oct_index : (int, Packing.oct_pack list) Hashtbl.t;
  ell_index : (int, Packing.ell_pack list) Hashtbl.t;
  dt_index : (int, Packing.dt_pack list) Hashtbl.t;
  invariants : (int, Astate.t) Hashtbl.t;  (** loop id -> head invariant *)
  input_specs : (int, float * float) Hashtbl.t;
  mutable join_count : int;
}

(** Fresh session with no hooks installed. *)
val new_session : unit -> session

val make_actx : ?session:session -> Config.t -> F.Tast.program -> actx

(** {1 Pack lookups (indexed)} *)

val oct_packs_of : actx -> F.Tast.var -> Packing.oct_pack list
val ell_packs_of : actx -> F.Tast.var -> Packing.ell_pack list
val dt_packs_of : actx -> F.Tast.var -> Packing.dt_pack list

(** {1 Cells and values} *)

(** Interned cell id of a scalar variable. *)
val var_cell : actx -> F.Tast.var -> int

(** Interval of every value of a scalar type on the target. *)
val type_range : actx -> F.Ctypes.scalar -> D.Itv.t

(** Range of a volatile input read (Sect. 4 environment specs). *)
val input_itv : actx -> F.Tast.var -> F.Ctypes.scalar -> D.Itv.t

(** Clock-reduced interval of a cell.  Under an interference context,
    reads of shared cells join the rely set — this is the single read
    funnel every consumer of an abstract value goes through. *)
val cell_itv : actx -> Astate.t -> int -> D.Itv.t

(** Is [v] a shared variable of a multi-task run?  [false] whenever no
    interference context is installed. *)
val itf_tracked_var : actx -> F.Tast.var -> bool

(** Join a write into an interference guarantee collector (exposed for
    the fixpoint driver's replay paths and tests). *)
val itf_record : itf -> itf_key -> D.Itv.t -> unit

(** Clock-reduced interval of a scalar variable. *)
val var_itv : actx -> Astate.t -> F.Tast.var -> D.Itv.t

(** Float-hull oracle over the state, for the relational domains. *)
val oracle : actx -> Astate.t -> F.Tast.var -> float * float

(** {1 Lvalues and expressions} *)

(** Substitute by-reference parameter bindings away. *)
val resolve_lval : binds -> F.Tast.lval -> F.Tast.lval

val resolve_expr : binds -> F.Tast.expr -> F.Tast.expr

(** Evaluate an expression to an interval; alarms are reported through
    the context's collector (when in checking mode) and any possible
    error is recorded in [err].  [var_hook] lets decision-tree leaves
    override variable ranges. *)
val eval :
  ?var_hook:(F.Tast.var -> D.Itv.t option) ->
  actx -> Astate.t -> binds -> bool ref -> F.Tast.expr -> D.Itv.t

(** Raising-domain attribution for alarm provenance (ISSUE 5): the
    abstract domain carrying the sharpest information about the
    variables of [e] — "octagon" when two of them share an octagon
    pack, "ellipsoid" / "decision-tree" when one is packed there,
    "clocked" when a clocked component is informative, "interval"
    otherwise.  Cold path (called when building an alarm). *)
val value_domain :
  actx -> Astate.t -> binds -> F.Tast.expr -> string

(** {1 Statement-level transfer functions} *)

(** guard#(E, c): refine the state under [cond = truth] (Sect. 5.4);
    compound conditions are handled by structural induction, atomic
    comparisons refine the intervals, the octagons (through linear
    forms) and the decision trees. *)
val guard : actx -> Astate.t -> binds -> F.Tast.expr -> bool -> Astate.t

(** Abstract assignment lvalue := e (Sect. 6.1.3): strong or weak cell
    updates, then relational updates (octagons, ellipsoids, decision
    trees) with their interval write-backs. *)
val assign : actx -> Astate.t -> binds -> F.Tast.lval -> F.Tast.expr -> Astate.t

(** Local-variable creation (stack cells are created on the fly,
    Sect. 5.2). *)
val local_decl :
  actx -> Astate.t -> binds -> F.Tast.var -> F.Tast.expr option -> Astate.t

(** [__astree_wait_for_clock()]: clock tick (Sect. 6.2.1). *)
val wait : actx -> Astate.t -> Astate.t

(** Initial abstract state: globals bound to their static initializers
    (Sect. 5.2). *)
val initial_state : actx -> Astate.t

(** Intern every cell the analysis could ever touch, in deterministic
    program order, so every context of a program — cold or warm cache
    run, per-task run in a worker or in-process — shares one frozen
    cell numbering. *)
val prefill_cells : actx -> unit

(** {1 Incremental-analysis support}

    Capture sections isolate the exact side effects of one function call
    on the context's mutable bookkeeping (alarms, loop invariants,
    useful octagon packs, join count), so the summary cache can store
    them with the call's result and replay them verbatim on a hit. *)

type capture

val capture_begin : actx -> capture
val capture_end : actx -> capture -> capture_delta

(** Abandon a section on an exceptional exit (alarms are preserved). *)
val capture_abort : actx -> capture -> unit

(** Replay a delta against the context — the cache-hit path. *)
val capture_replay : actx -> capture_delta -> unit
