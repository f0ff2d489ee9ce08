(** Abstract transfer functions: assignments and guards over the full
    abstract state, with alarm reporting (Sect. 5.3, 6.1.3, 6.3).

    Integer results are checked against their type's range (overflowing
    values are "wiped out" with an alarm, not wrapped), floats are
    rounded outward per kind with overflow and invalid-operation alarms,
    divisors are checked for zero, array subscripts for bounds.  When
    the plain interval evaluation incurs no possible error, float
    expressions are refined through the linear forms of Sect. 6.3.

    The relational domains ({!Relstate.domains}) are run by two folds,
    one for assignments and one for guards, over the domains the
    configuration enables.  They reach the intervals only through one
    static {!Reldom.chan} built here: the packing, the state's
    relational part, interval reads ({!var_itv}) and refinements,
    alarm-free evaluation, parameter resolution and the useful-pack
    mark. *)

module F = Astree_frontend
module D = Astree_domains

(** Bindings of by-reference parameters to actual lvalues (function
    inlining, Sect. 5.4). *)
type binds = F.Tast.lval F.Tast.VarMap.t

(** {1 Session types (reentrancy seam)}

    The iterator's extension hooks — the call memo's keyed tier and
    the resource-governor tick — live in a per-analysis {!session}
    record rather than module-global refs, so concurrent analyses in
    one process (the [astreed] daemon) cannot corrupt each other. *)

(** {1 Multi-task interference (Astree_conc seam)} *)

(** A shared cell, identified position-independently: root variable id
    and access path.  Marshals across processes. *)
type itf_key = int * Cell.step list

(** Interference context of one per-task run of a multi-task analysis
    (Miné's rely/guarantee iteration): [itf_rely] is joined into every
    read of a shared cell, [itf_shared] gates the read join and the
    value-copy fast paths, [itf_writes] collects the task's abstract
    writes to shared cells (the guarantee).  A per-task run's session
    carries it ([session.ses_itf]). *)
type itf = {
  itf_rely : (itf_key, D.Itv.t) Hashtbl.t;
  itf_shared : (int, unit) Hashtbl.t;
  mutable itf_writes : (itf_key, D.Itv.t) Hashtbl.t;
      (** swapped for a fresh table inside a memo section *)
}

(** A call's summary in the coordinates of its frame (the cells, packs
    and loops the callee can touch, in a program-stable order), so that
    it replays in any program with the same frame.  Pure data —
    marshalled into the on-disk store. *)
type summary = {
  sm_exit : Astate.t;
      (** frame part of the exit state: cells keyed by frame cell
          position, packs by frame pack position; bottom when no flow
          returns *)
  sm_retv : D.Itv.t;
  sm_alarms : (string * Alarm.t) list;
      (** each alarm with the function its location is relative to
          (line offset from that function's definition; [""] when the
          location is absolute, as in every summary the iterator holds:
          only the store keeps them relative) *)
  sm_invariants : (int * Astate.t) list;
      (** frame loop position, frame part of the loop's invariant *)
  sm_oct_useful : int list;  (** frame octagon-pack positions *)
  sm_joins : int;
  sm_itf_writes : (int * D.Itv.t) list;
      (** shared-cell writes of the call, by frame cell position *)
}

(** Facts a subsystem derives from a prepared program and keeps in it
    ([Astree_incremental] adds the program's fingerprints). *)
type extra = ..

(** What an analysis of [pr_prog] under [pr_cfg] builds before it
    iterates and that depends on nothing else: the packing, the cell
    numbering, the function table, the input ranges, the inlined sizes,
    the frames' shared part and the [extra] facts.  A caller that
    analyzes the same program again keeps it ([astreed]'s workers);
    otherwise it is built once per run.  Per-run state — alarms,
    invariants, pack digests — is never in it. *)
type prepared = {
  pr_prog : F.Tast.program;
  pr_cfg : Config.t;
  pr_packs : Packing.t;
  pr_intern : Cell.interner;
      (** every cell the analysis can touch, numbered in program order
          (globals, then each function's parameters, locals and call
          destinations): cell ids are a function of the program and
          the configuration alone, shared by every run of the record
          and never extended by one *)
  pr_funs : (string, F.Tast.fundef) Hashtbl.t;
      (** [pr_prog]'s functions by name, first definition first *)
  pr_input_specs : (int, float * float) Hashtbl.t;
      (** volatile input ranges, by variable id *)
  pr_inlined : (string, int) Hashtbl.t Lazy.t;
      (** transitive inlined size of each function: own statements plus
          the inlined statements of every acyclic callee, what a replayed
          call saves *)
  pr_frames : Frame.shared;
  mutable pr_extra : extra option;
}

(** Cache key: callee fingerprint with the position-relative locations
    of its code (replayed alarms carry them), digest of the
    frame-restricted entry state + by-reference bindings, and the
    alarm-collector mode. *)
type summary_key = {
  sk_fn : string;
  sk_entry : string;
  sk_checking : bool;
}

(** {1 Split main loop (Astree_parallel seam)} *)

(** What one half of a split main loop (DESIGN.md §7) tells the other
    at a decision of the fixpoint: its part of each global predicate.
    [Iterator] combines two votes: [vt_subset], [vt_equal] and
    [vt_reuse] by AND, [vt_unstable] by sum, [vt_bot] by OR; the counts
    are the sender's own.  Plain data. *)
type vote = {
  vt_subset : bool;
  vt_equal : bool;
  vt_unstable : int;
  vt_reuse : bool;
  vt_bot : bool;
  vt_replayed : int;  (** calls the sender replayed since the split *)
  vt_thr_hits : int;  (** widening threshold hits since the split *)
}

(** What the helper of a split loop ships when the loop ends: its half
    of the loop invariant and the bookkeeping its calls changed.  The
    parent's keys and the helper's are disjoint.  Its half of the
    loop's outcome is not shipped: a split loop has no exit, no
    [break] and no [return], so both halves leave it at bottom.  Plain
    data. *)
type half = {
  hf_inv : Astate.t;
  hf_alarms : Alarm.t list;
  hf_oct_useful : int list;
  hf_joins : int;
}

(** One half of a split loop reached bottom.  The one-process pass
    would have skipped the calls after the one that reached it, so the
    split ends and the loop runs again alone: an outcome of the
    analysis, not a fault. *)
exception Half_bottom

(** The other half of a split loop, as one half sees it. *)
type peer = {
  pe_exchange : vote -> vote;
      (** send this half's vote, return the other half's *)
  pe_finish : unit -> half;
      (** the parent's side, once its loop has ended: the helper's
          half, with its registry delta and trace events absorbed *)
}

(** The split hook that [Astree_parallel] installs.  [sp_run ~helper
    parent] forks one helper process that runs [helper] and ships what
    it returns, runs [parent] here, and reaps the helper on every
    path.  [None] when no helper could be forked, when the helper was
    lost (it died, or sent a torn or out-of-step message) or when one
    half raised {!Half_bottom}; then the registry and the trace are as
    they were before the split, but for the split's own counters.  Any
    other exception is re-raised. *)
type split = {
  sp_run : 'a. helper:(peer -> half) -> (peer -> 'a) -> 'a option;
}

(** The keyed tier of the call memo ([Memo.call]): the summaries of
    calls under a key that only [Astree_incremental] can compute, found
    in and added to its store, which counts the run's hits and misses.
    Summaries cross this seam with absolute alarm locations. *)
type keyed = {
  kt_names : Frame.names;
      (** the program-stable names the context's frames are built with,
          so that the loops' call slots and the store share frames *)
  kt_key :
    actx -> fname:string -> Frame.t -> binds -> Astate.t -> summary_key option;
      (** [kt_key a ~fname fr binds entry]: the key of a call from the
          bound entry state, [fr] its frame; [None] when the callee
          cannot be keyed *)
  kt_find : summary_key -> summary option;
  kt_add : summary_key -> summary -> unit;
}

(** Per-analysis session: the hooks and cross-cutting mutable state of
    one analysis run.  Sessions make [Analysis] reentrant: the daemon
    creates one per request. *)
and session = {
  mutable ses_keyed : keyed option;
      (** installed by the summary-cache driver for one attempt *)
  ses_tick_hook : (unit -> unit) option;
      (** called every 256 abstract statements (resource governor) *)
  mutable ses_ticks : int;
  mutable ses_live : actx option;
      (** context currently analyzed under this session *)
  ses_itf : itf option;
      (** interference context of a multi-task per-task run; [None]
          keeps every transfer function on its single-task path *)
  ses_split : split option;
      (** the main loop's split into two processes; used at
          [cfg.jobs >= 2] *)
}

(** Analysis context shared by all transfer functions. *)
and actx = {
  prog : F.Tast.program;
  prepared : prepared;  (** what the context was made from *)
  funs : (string, F.Tast.fundef) Hashtbl.t;  (** [prepared.pr_funs] *)
  cfg : Config.t;
  session : session;
  packs : Packing.t;
  intern : Cell.interner;  (** [prepared.pr_intern]: look cells up only *)
  alarms : Alarm.collector;
  mutable oct_useful : unit Ptmap.t;
      (** octagon packs that improved precision (Sect. 7.2.2) *)
  mutable invariants : Astate.t Ptmap.t;  (** loop id -> head invariant *)
  input_specs : (int, float * float) Hashtbl.t;  (** [prepared.pr_input_specs] *)
  mutable join_count : int;
  frames : Frame.ctx;  (** the call frames of this context *)
  inlined : (string, int) Hashtbl.t Lazy.t;  (** [prepared.pr_inlined] *)
}

(** Fresh session with these hooks ([Scheduler.analyze] decides them). *)
val new_session :
  ?split:split -> ?itf:itf -> ?tick:(unit -> unit) -> unit -> session

(** Prepare [p] for analyses under [cfg]. *)
val prepare : Config.t -> F.Tast.program -> prepared

(** [prepared] if it was prepared for [p] (physically) and [cfg]
    (structurally), a fresh {!prepare} otherwise. *)
val prepared_for : ?prepared:prepared -> Config.t -> F.Tast.program -> prepared

(** A fresh context: a new alarm collector and empty bookkeeping maps
    over [prepared_for ?prepared cfg p] and its cell numbering. *)
val make_actx :
  ?session:session -> ?prepared:prepared -> Config.t -> F.Tast.program -> actx

(** {1 Cells and values} *)

(** Cell id of a scalar variable. *)
val var_cell : actx -> F.Tast.var -> int

(** Clock-reduced interval of a cell.  Under an interference context,
    reads of shared cells join the rely set — this is the single read
    funnel every consumer of an abstract value goes through. *)
val cell_itv : actx -> Astate.t -> int -> D.Itv.t

(** Clock-reduced interval of a scalar variable. *)
val var_itv : actx -> Astate.t -> F.Tast.var -> D.Itv.t


(** {1 Bookkeeping}

    Both maps are functional and held in mutable fields: a memo section
    ([Memo.record]) takes them when it opens and compares them with
    {!Ptmap.diff} when it closes. *)

val set_invariant : actx -> int -> Astate.t -> unit
val mark_useful : actx -> int -> unit

(** Join a write of a value to the shared cell with this key into the
    guarantee collector [itf_writes]. *)
val itf_record : itf -> itf_key -> D.Itv.t -> unit

(** {1 Lvalues and expressions} *)

(** Substitute by-reference parameter bindings away; a node with nothing
    to substitute below it is returned itself. *)
val resolve_lval : binds -> F.Tast.lval -> F.Tast.lval

val resolve_expr : binds -> F.Tast.expr -> F.Tast.expr

(** Evaluate an expression to an interval; alarms are reported through
    the context's collector (when in checking mode) and any possible
    error is recorded in [err].  [var_hook] lets decision-tree leaves
    override variable ranges. *)
val eval :
  ?var_hook:(F.Tast.var -> D.Itv.t option) ->
  actx -> Astate.t -> binds -> bool ref -> F.Tast.expr -> D.Itv.t

(** Raising-domain attribution for alarm provenance: the abstract
    domain carrying the sharpest information about the variables of
    [e] — the [name] of the first enabled relational domain that
    relates them ("octagon" when two share an octagon pack,
    "ellipsoid" / "decision-tree" when one is packed there), else
    "clocked" when a clocked component is informative, else
    "interval".  Cold path (called when building an alarm). *)
val value_domain :
  actx -> Astate.t -> binds -> F.Tast.expr -> string

(** {1 Statement-level transfer functions} *)

(** guard#(E, c): refine the state under [cond = truth] (Sect. 5.4);
    compound conditions are handled by structural induction, atomic
    conditions refine the intervals, then every enabled relational
    domain in product order ({!Relstate.domains}, each through
    {!Reldom.S.guard}), until the state is bottom. *)
val guard : actx -> Astate.t -> binds -> F.Tast.expr -> bool -> Astate.t

(** Abstract assignment lvalue := e (Sect. 6.1.3): strong or weak cell
    updates, then, for an exact scalar variable, every enabled
    relational domain in product order ({!Reldom.S.assign}), each with
    its interval write-back. *)
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
