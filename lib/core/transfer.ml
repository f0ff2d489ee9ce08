(** Abstract transfer functions: assignments and guards over the full
    abstract state, with alarm reporting (Sect. 5.3, 6.1.3, 6.3).

    The evaluation of expressions follows the machine semantics: integer
    results are checked against their type's range (overflowing values
    are "wiped out" with an alarm, not wrapped), floats are rounded
    outward per kind with overflow and invalid-operation alarms, divisors
    are checked for zero, array subscripts for bounds.  When the plain
    interval evaluation incurs no possible error, float expressions are
    refined through the linear forms of Sect. 6.3. *)

module F = Astree_frontend
module D = Astree_domains
module Metrics = Astree_obs.Metrics
open F.Tast

type binds = lval VarMap.t
(** bindings of by-reference parameters to actual lvalues (function
    inlining, Sect. 5.4) *)

(* ------------------------------------------------------------------ *)
(* Session types (reentrancy seam)                                     *)
(* ------------------------------------------------------------------ *)

(* The iterator's extension hooks — the call memo's keyed tier and the
   resource-governor tick — used to be module-global refs, which made
   [Analysis] a process, not a value: two concurrent analyses with
   different options would clobber each other's hooks.  They now live in a per-analysis {!session} record
   carried by the context, so a resident server can run requests with
   different configurations without any shared mutable state. *)

(** A shared cell of the multi-task interference analysis, identified
    position-independently (root variable id + access path) so keys
    marshal across processes. *)
type itf_key = int * Cell.step list

(** Interference context of one per-task analysis run (Miné's
    rely/guarantee iteration around this analyzer's design).  Installed
    by the outer fixpoint driver ([Astree_conc]) through the session;
    [None] — the default — leaves every transfer function byte-for-byte
    on its single-task path.  Neither table is written during the run:
    the task's own writes go to its context's guarantee collector
    ([actx.guarantee]).

    - [itf_rely]: the rely map, joined into every read of a shared cell
      ([cell_itv]): between any two statements another task may have
      stored any value the rely covers.
    - [itf_shared]: root variable ids of the shared variables; gates
      both the read join and the value-copy fast paths of [assign]
      (copying a shared source's own-flow value would silently drop the
      rely), and the guarantee's writes. *)
type itf = {
  itf_rely : (itf_key, D.Itv.t) Hashtbl.t;
  itf_shared : (int, unit) Hashtbl.t;
}

module Itf_map = Map.Make (struct
  type t = itf_key

  let compare = compare
end)

(** The effects of a run, or of a section of one, on a context's
    bookkeeping (DESIGN.md §8): what a summary replays, what the helper
    of a split loop and a per-task run ship.  Plain data. *)
type delta = {
  d_alarms : Alarm.t list;  (** sorted by location *)
  d_invariants : (int * Astate.t) list;  (** by loop id *)
  d_oct_useful : int list;  (** useful octagon packs, by id *)
  d_guarantee : (itf_key * D.Itv.t) list;  (** joined writes, by key *)
}

(** A call's summary, stored in the coordinates of the call's frame
    (the cells, packs and loops the callee can touch, in a
    program-stable order; [Astree_incremental.Frame]) so that it can be
    replayed in any program that has the same frame.  Pure data —
    marshalled into the on-disk store. *)
type summary = {
  sm_exit : Astate.t;
      (** frame part of the state after the return-point trace merge:
          cells keyed by frame cell position, packs by frame pack
          position; bottom when no flow returns *)
  sm_retv : D.Itv.t;  (** return value (Bot for void / no return) *)
  sm_alarms : (string * Alarm.t) list;
      (** each alarm with the function its location is relative to
          (line offset from that function's definition; [""] when the
          location is absolute, as in every summary the iterator holds:
          only the store keeps them relative) *)
  sm_invariants : (int * Astate.t) list;
      (** frame loop position, frame part of the loop's invariant *)
  sm_oct_useful : int list;  (** frame octagon-pack positions *)
  sm_itf_writes : (int * D.Itv.t) list;
      (** shared-cell writes of the call, by frame cell position *)
}

(** Facts a subsystem derives from a prepared program and keeps in it
    ([Astree_incremental] adds the fingerprints). *)
type extra = ..

(** What an analysis of [pr_prog] under [pr_cfg] builds before it
    iterates and that depends on nothing else: kept by a caller that
    analyzes the same program again ([astreed]'s workers), built once
    per run otherwise.  Its interner numbers every cell of the program
    in program order, and no analysis numbers one after that: cell ids
    are a fact of the prepared program, shared by every run of it, in
    any process.  Per-run state — alarms, invariants, pack digests —
    is never in it. *)
type prepared = {
  pr_prog : program;
  pr_cfg : Config.t;
  pr_packs : Packing.t;
  pr_intern : Cell.interner;
  pr_funs : (string, fundef) Hashtbl.t;
  pr_input_specs : (int, float * float) Hashtbl.t;
  pr_inlined : (string, int) Hashtbl.t Lazy.t;
  pr_frames : Frame.shared;
  mutable pr_extra : extra option;
}

(** Cache key: callee fingerprint with the position-relative locations
    of its code (replayed alarms carry them), digest of the
    frame-restricted entry state together with the by-reference
    bindings, and the alarm-collector mode — iteration-mode and
    checking-mode results are never conflated. *)
type summary_key = {
  sk_fn : string;
  sk_entry : string;
  sk_checking : bool;
}

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

(** One half of a split loop reached bottom.  The one-process pass
    would have skipped the calls after the one that reached it, so the
    split ends and the loop runs again alone: an outcome of the
    analysis, not a fault. *)
exception Half_bottom

(** The other half of a split loop, as one half sees it. *)
type peer = {
  pe_exchange : vote -> vote;
      (** send this half's vote, return the other half's *)
  pe_finish : unit -> Astate.t * delta;
      (** the parent's side, once its loop has ended: the helper's half
          of the loop invariant and the delta of its calls, with its
          registry delta and trace events absorbed *)
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
  sp_run : 'a. helper:(peer -> Astate.t * delta) -> (peer -> 'a) -> 'a option;
}

(** The keyed tier of the call memo as [Memo.call] sees it (DESIGN.md
    §8): summaries under a key that only [Astree_incremental] can
    compute, found in and added to its store, which counts the run's
    hits and misses.  Summaries cross this seam with absolute alarm
    locations; the store keeps them relative. *)
type keyed = {
  kt_names : Frame.names;
      (** the program-stable names the context's frames are built with,
          so that the loops' call slots and the store share frames *)
  kt_key :
    actx -> fname:string -> Frame.t -> binds -> Astate.t -> summary_key option;
      (** the key of a call from a bound entry state, with the call's
          frame; [None] when the callee cannot be keyed *)
  kt_find : summary_key -> summary option;
  kt_add : summary_key -> summary -> unit;
}

(** Per-analysis session: every hook and piece of cross-cutting mutable
    state one analysis run needs, bundled so that concurrent analyses
    in one process (the [astreed] daemon, nested drivers) cannot
    corrupt each other.  Created by [new_session] (or implicitly by
    [Analysis.analyze]) and carried by the context. *)
and session = {
  mutable ses_keyed : keyed option;
  ses_tick_hook : (unit -> unit) option;
  mutable ses_ticks : int;
  mutable ses_live : actx option;
      (** the context currently being analyzed under this session, set
          by [Analysis.analyze]; the robust subsystem reads it
          to assemble a partial result on interrupt *)
  ses_itf : itf option;
  ses_split : split option;
}

(** Analysis context shared by all transfer functions. *)
and actx = {
  prog : program;
  prepared : prepared;  (** what the context was made from *)
  funs : (string, fundef) Hashtbl.t;
      (** [prog]'s functions by name ([F.Tast.fun_table]) *)
  cfg : Config.t;
  session : session;  (** hooks and cross-cutting per-run state *)
  packs : Packing.t;
  intern : Cell.interner;
  alarms : Alarm.collector;
  mutable oct_useful : unit Ptmap.t;
      (** octagon packs that improved precision (Sect. 7.2.2) *)
  mutable invariants : Astate.t Ptmap.t;  (** loop id -> head invariant *)
  mutable guarantee : D.Itv.t Itf_map.t;
      (** the task's joined writes to shared cells, under an
          interference context *)
  input_specs : (int, float * float) Hashtbl.t;  (** volatile input ranges *)
  frames : Frame.ctx;  (** the call frames of this context *)
  inlined : (string, int) Hashtbl.t Lazy.t;
      (** transitive inlined size of each function ([inlined_sizes]) *)
}

let new_session ?split ?itf ?tick () : session =
  {
    ses_keyed = None;
    ses_tick_hook = tick;
    ses_ticks = 0;
    ses_live = None;
    ses_itf = itf;
    ses_split = split;
  }

(** Transitive inlined size of each function: own statements plus the
    inlined statements of every (acyclic) callee.  This, not the local
    body size, is what a replay saves: a thin wrapper around a deep call
    tree is an excellent memoization point, a large leaf called with a
    tiny environment a poor one.  Back edges contribute 0 (recursive
    functions are uncacheable anyway: no fingerprint). *)
let inlined_sizes (funs : (string, fundef) Hashtbl.t) (p : program) :
    (string, int) Hashtbl.t =
  let sizes : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let rec size stack fn =
    match Hashtbl.find_opt sizes fn with
    | Some n -> n
    | None -> (
        match Hashtbl.find_opt funs fn with
        | None -> 0
        | Some fd ->
            if List.mem fn stack then 0
            else begin
              let n = ref (block_size fd.fd_body) in
              iter_stmts
                (fun s ->
                  match s.sdesc with
                  | Scall (_, callee, _) -> n := !n + size (fn :: stack) callee
                  | _ -> ())
                fd.fd_body;
              Hashtbl.replace sizes fn !n;
              !n
            end)
  in
  List.iter (fun (fn, _) -> ignore (size [] fn)) p.p_funs;
  sizes

(* [f] on every cell the analysis could ever touch, in deterministic
   program order: globals, then each function's parameters, locals and
   call destinations.  A cell may come more than once. *)
let program_cells (cfg : Config.t) (p : program) (f : Cell.t -> unit) : unit =
  let var_cells (v : var) =
    List.iter f
      (Cell.cells_of_var ~structs:p.p_structs
         ~expand_array_max:cfg.Config.expand_array_max v)
  in
  List.iter (fun (v, _) -> var_cells v) p.p_globals;
  List.iter
    (fun ((_, fd) : string * fundef) ->
      List.iter
        (function Pval v -> var_cells v | Pref _ -> ())
        fd.fd_params;
      iter_stmts
        (fun s ->
          match s.sdesc with
          | Slocal (v, _) -> var_cells v
          | Scall (Some v, _, _) -> var_cells v
          | _ -> ())
        fd.fd_body)
    p.p_funs

let prepare (cfg : Config.t) (p : program) : prepared =
  let input_specs = Hashtbl.create 16 in
  List.iter
    (fun (spec : input_spec) ->
      Hashtbl.replace input_specs spec.in_var.v_id (spec.in_lo, spec.in_hi))
    p.p_inputs;
  let funs = F.Tast.fun_table p in
  let packs = Packing.compute cfg p in
  let intern = Cell.make_interner ~vars:(F.Tast.var_id_bound p) in
  program_cells cfg p (fun c -> ignore (Cell.intern intern c));
  {
    pr_prog = p;
    pr_cfg = cfg;
    pr_packs = packs;
    pr_intern = intern;
    pr_funs = funs;
    pr_input_specs = input_specs;
    pr_inlined = lazy (inlined_sizes funs p);
    pr_frames = Frame.shared p funs cfg packs intern;
    pr_extra = None;
  }

let make_actx ?session ?prepared (cfg : Config.t) (p : program) : actx =
  let pr = match prepared with Some pr -> pr | None -> prepare cfg p in
  let session = match session with Some s -> s | None -> new_session () in
  let names = Option.map (fun k -> k.kt_names) session.ses_keyed in
  {
    prog = p;
    prepared = pr;
    funs = pr.pr_funs;
    cfg;
    session;
    packs = pr.pr_packs;
    intern = pr.pr_intern;
    alarms = Alarm.make_collector ();
    oct_useful = Ptmap.empty;
    invariants = Ptmap.empty;
    guarantee = Itf_map.empty;
    input_specs = pr.pr_input_specs;
    frames = Frame.ctx ?names pr.pr_frames;
    inlined = pr.pr_inlined;
  }

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

(** Cell id of a scalar variable. *)
let var_cell (a : actx) (v : var) : int =
  match v.v_ty with
  | F.Ctypes.Tscalar s ->
      Cell.lookup a.intern { Cell.root = v; path = []; cty = s; weak = false }
  | _ -> invalid_arg "var_cell: not a scalar variable"

let type_range (a : actx) (s : F.Ctypes.scalar) : D.Itv.t =
  Avalue.top_of_scalar a.prog.p_target s

(** Interval for a volatile input read (Sect. 4: environment ranges). *)
let input_itv (a : actx) (v : var) (s : F.Ctypes.scalar) : D.Itv.t =
  match Hashtbl.find_opt a.input_specs v.v_id with
  | Some (lo, hi) -> (
      match s with
      | F.Ctypes.Tint _ ->
          D.Itv.int_range
            (int_of_float (Float.ceil lo))
            (int_of_float (Float.floor hi))
      | F.Ctypes.Tfloat _ -> D.Itv.float_range lo hi)
  | None -> type_range a s

(** Is [v] a shared variable of a multi-task run?  [false] whenever no
    interference context is installed (the single-task fast path). *)
let itf_tracked_var (a : actx) (v : var) : bool =
  match a.session.ses_itf with
  | None -> false
  | Some it -> Hashtbl.mem it.itf_shared v.v_id

(** Read a cell's interval from the state (clock-reduced).  Under an
    interference context, reads of shared cells return the join of the
    own-flow value with the rely set: between any two statements another
    task may have stored any value the rely covers (Miné's
    flow-insensitive interference semantics).  This is the single read
    funnel of the analyzer — guards, linearization oracles and
    relational write-backs all go through it, so every consumer of a
    shared value sees the interference. *)
let cell_itv (a : actx) (st : Astate.t) (id : int) : D.Itv.t =
  let c = Cell.of_id a.intern id in
  let own =
    if Cell.is_volatile c && c.Cell.path = [] then
      input_itv a c.Cell.root c.Cell.cty
    else
      match Env.find st.Astate.env id with
      | Some av -> Avalue.itv (Avalue.reduce st.Astate.clock av)
      | None -> type_range a c.Cell.cty
  in
  match a.session.ses_itf with
  | None -> own
  | Some it -> (
      match Hashtbl.find_opt it.itf_rely (c.Cell.root.v_id, c.Cell.path) with
      | Some rely -> D.Itv.join own rely
      | None -> own)

(** Current interval of a scalar variable. *)
let var_itv (a : actx) (st : Astate.t) (v : var) : D.Itv.t =
  cell_itv a st (var_cell a v)

(* ------------------------------------------------------------------ *)
(* Bookkeeping                                                          *)
(* ------------------------------------------------------------------ *)

(** Record a loop's head invariant. *)
let set_invariant (a : actx) (loop_id : int) (inv : Astate.t) : unit =
  a.invariants <- Ptmap.add loop_id inv a.invariants

(** Record that an octagon pack improved precision (Sect. 7.2.2). *)
let mark_useful (a : actx) (pid : int) : unit =
  a.oct_useful <- Ptmap.add pid () a.oct_useful

(** Join a write of [value] to the shared cell keyed [key] into the
    guarantee collector: it over-approximates the union of every value
    this task may store. *)
let itf_record (a : actx) (key : itf_key) (value : D.Itv.t) : unit =
  a.guarantee <-
    Itf_map.update key
      (function Some old -> Some (D.Itv.join old value) | None -> Some value)
      a.guarantee

(* A section keeps the bookkeeping it opened on: the alarm table and
   the guarantee, which it swaps for fresh ones, and the two maps,
   which are functional and stay in place. *)
type section = {
  se_alarms : Alarm.capture;
  se_checking : bool;
  se_invariants : Astate.t Ptmap.t;
  se_oct_useful : unit Ptmap.t;
  se_guarantee : D.Itv.t Itf_map.t;
}

let open_section (a : actx) : section =
  let se_guarantee = a.guarantee in
  a.guarantee <- Itf_map.empty;
  {
    se_alarms = Alarm.capture a.alarms;
    se_checking = a.alarms.Alarm.enabled;
    se_invariants = a.invariants;
    se_oct_useful = a.oct_useful;
    se_guarantee;
  }

(* The bindings of [m] that are not physically [base]'s, sorted by
   id. *)
let changed ~(base : 'a Ptmap.t) (m : 'a Ptmap.t) : (int * 'a) list =
  List.sort (fun (x, _) (y, _) -> Int.compare x y) (Ptmap.diff ~base m)

let close (a : actx) (s : section) : delta =
  let own = a.guarantee in
  a.guarantee <-
    Itf_map.union (fun _ old v -> Some (D.Itv.join old v)) s.se_guarantee own;
  {
    d_alarms = Alarm.release a.alarms s.se_alarms;
    d_invariants = changed ~base:s.se_invariants a.invariants;
    d_oct_useful =
      List.map fst (changed ~base:s.se_oct_useful a.oct_useful);
    d_guarantee = Itf_map.bindings own;
  }

let rollback (a : actx) (s : section) : unit =
  ignore (Alarm.drop a.alarms s.se_alarms);
  a.alarms.Alarm.enabled <- s.se_checking;
  a.invariants <- s.se_invariants;
  a.oct_useful <- s.se_oct_useful;
  a.guarantee <- s.se_guarantee

let absorb ?(join = false) (a : actx) (d : delta) : unit =
  Alarm.absorb a.alarms d.d_alarms;
  List.iter
    (fun (id, inv) ->
      set_invariant a id
        (match Ptmap.find_opt id a.invariants with
        | Some old when join -> Astate.join old inv
        | _ -> inv))
    d.d_invariants;
  List.iter (mark_useful a) d.d_oct_useful;
  List.iter (fun (key, v) -> itf_record a key v) d.d_guarantee

let run_delta (a : actx) : delta =
  {
    d_alarms = Alarm.to_list a.alarms;
    d_invariants = changed ~base:Ptmap.empty a.invariants;
    d_oct_useful = List.map fst (changed ~base:Ptmap.empty a.oct_useful);
    d_guarantee = Itf_map.bindings a.guarantee;
  }

(* ------------------------------------------------------------------ *)
(* Lvalue resolution                                                   *)
(* ------------------------------------------------------------------ *)

(** Substitute by-reference parameter bindings away.  A node with
    nothing to substitute below it is returned as it is, not rebuilt:
    resolution allocates only along substituted paths, and expression
    nodes stay physically stable from one pass to the next. *)
let rec resolve_lval (binds : binds) (lv : lval) : lval =
  match lv.ldesc with
  | Lvar _ -> lv
  | Lderef v -> (
      match VarMap.find_opt v binds with
      | Some actual -> actual
      | None -> lv)
  | Lindex (b, i) ->
      let b' = resolve_lval binds b and i' = resolve_expr binds i in
      if b' == b && i' == i then lv else { lv with ldesc = Lindex (b', i') }
  | Lfield (b, f) ->
      let b' = resolve_lval binds b in
      if b' == b then lv else { lv with ldesc = Lfield (b', f) }

and resolve_expr (binds : binds) (e : expr) : expr =
  match e.edesc with
  | Eint _ | Efloat _ -> e
  | Elval lv ->
      let lv' = resolve_lval binds lv in
      if lv' == lv then e else { e with edesc = Elval lv' }
  | Eunop (op, x) ->
      let x' = resolve_expr binds x in
      if x' == x then e else { e with edesc = Eunop (op, x') }
  | Ebinop (op, x, y) ->
      let x' = resolve_expr binds x and y' = resolve_expr binds y in
      if x' == x && y' == y then e else { e with edesc = Ebinop (op, x', y') }
  | Ecast (s, x) ->
      let x' = resolve_expr binds x in
      if x' == x then e else { e with edesc = Ecast (s, x') }

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* [err] is set when any run-time error is possible in the evaluation;
   linearization refinement is then disabled (Sect. 6.3). *)

let report ?domain ?operands a (err : bool ref) kind loc msg =
  err := true;
  Alarm.report ?domain ?operands a.alarms kind loc msg

(* ---- alarm provenance helpers (ISSUE 5) -------------------------- *)
(* Cold path: these run only inside alarm branches, never on error-free
   evaluations, so allocating strings and walking packs is fine. *)

(* Which abstract domain carries the sharpest information about the
   variables of [e]?  The first relational domain, in product order,
   that relates them (two variables sharing an octagon pack; a variable
   in an ellipsoid or decision-tree pack); else the clock when a
   variable's clocked components carry information; else the plain
   interval evaluation. *)
let value_domain (a : actx) (st : Astate.t) (binds : binds) (e : expr) :
    string =
  let vars =
    VarSet.elements (F.Tast.expr_vars (resolve_expr binds e) VarSet.empty)
  in
  let clocked v =
    match v.v_ty with
    | F.Ctypes.Tscalar _ -> (
        match Env.find st.Astate.env (var_cell a v) with
        | Some (c : Avalue.t) ->
            (not (D.Itv.is_bot c.D.Clocked.vminus))
            || not (D.Itv.is_bot c.D.Clocked.vplus)
        | None -> false)
    | _ -> false
  in
  match
    List.find_opt
      (fun d ->
        let module M = (val d : Reldom.S) in
        M.enabled a.cfg && M.relates a.packs vars)
      Relstate.domains
  with
  | Some d ->
      let module M = (val d : Reldom.S) in
      M.name
  | None -> if List.exists clocked vars then "clocked" else "interval"

(* (expression, abstract value) pair for an alarm's operand list. *)
let operand (e : expr) (i : D.Itv.t) : string * string =
  (Fmt.str "%a" F.Pp.pp_expr e, Fmt.str "%a" D.Itv.pp i)

(* Clamp an integer interval to a type range, alarming on overflow. *)
let clamp_int a err loc (s : F.Ctypes.scalar) (i : D.Itv.t) : D.Itv.t =
  let rng = type_range a s in
  if D.Itv.is_bot i then i
  else if D.Itv.subset i rng then i
  else begin
    report a err Alarm.Int_overflow loc
      (Fmt.str "value %a outside %a" D.Itv.pp i F.Ctypes.pp_scalar s);
    D.Itv.meet i rng
  end

(* Clamp a float interval to the finite range of its kind. *)
let clamp_float a err loc (k : F.Ctypes.fkind) (i : D.Itv.t) : D.Itv.t =
  let m = D.Float_utils.fmax k in
  match i with
  | D.Itv.Float (lo, hi) ->
      if lo >= -.m && hi <= m then i
      else begin
        report a err Alarm.Float_overflow loc
          (Fmt.str "value %a exceeds the largest finite %s" D.Itv.pp i
             (if k = F.Ctypes.Fsingle then "float" else "double"));
        D.Itv.meet i (D.Itv.float_range (-.m) m)
      end
  | i -> i

let round_float_result (k : F.Ctypes.fkind) (i : D.Itv.t) : D.Itv.t =
  match k with
  | F.Ctypes.Fsingle -> ( match i with D.Itv.Float _ -> D.Itv.to_single i | i -> i)
  | F.Ctypes.Fdouble -> i

(* Run [f] with the alarm collector muted: evaluations made only to
   refine a state must not report. *)
let quietly (a : actx) (f : unit -> 'r) : 'r =
  let saved = a.alarms.Alarm.enabled in
  a.alarms.Alarm.enabled <- false;
  let r = f () in
  a.alarms.Alarm.enabled <- saved;
  r

(* The values of a scalar for which it tests true ([truth]) or false. *)
let refine_truth (i : D.Itv.t) (truth : bool) : D.Itv.t =
  let zero =
    match i with D.Itv.Float _ -> D.Itv.float_const 0.0 | _ -> D.Itv.int_const 0
  in
  if truth then D.Itv.refine_ne i zero else D.Itv.meet i zero

(** Evaluate an expression to an interval, reporting alarms (in checking
    mode) and recording error possibility in [err].  [var_hook] lets
    decision-tree leaves override variable ranges. *)
let rec eval ?(var_hook : (var -> D.Itv.t option) option) (a : actx)
    (st : Astate.t) (binds : binds) (err : bool ref) (e : expr) : D.Itv.t =
  let ev = eval ?var_hook a st binds err in
  let loc = e.eloc in
  match e.edesc with
  | Eint n -> D.Itv.int_const n
  | Efloat f -> D.Itv.float_const f
  | Elval lv -> read_lval ?var_hook a st binds err lv
  | Eunop (op, x) -> (
      let ix = ev x in
      match op with
      | Neg -> (
          let r = D.Itv.neg ix in
          match e.ety with
          | F.Ctypes.Tint _ -> clamp_int a err loc e.ety r
          | F.Ctypes.Tfloat k ->
              clamp_float a err loc k (round_float_result k r))
      | Bnot -> clamp_int a err loc e.ety (D.Itv.bnot ix)
      | Lnot ->
          let can_f, can_t = D.Itv.truth ix in
          (* !x is true when x is zero *)
          D.Itv.of_truth (can_t, can_f)
      | Fabs -> D.Itv.abs ix
      | Sqrt -> (
          match ix with
          | D.Itv.Float (lo, _) when lo < 0.0 ->
              report
                ~domain:(value_domain a st binds x)
                ~operands:[ operand x ix ] a err Alarm.Invalid_op loc
                "sqrt of possibly negative value";
              D.Itv.sqrt_itv ix
          | _ -> D.Itv.sqrt_itv ix))
  | Ebinop (op, x, y) -> (
      match op with
      | Land ->
          (* short-circuit: the rhs is only evaluated (and can only
             err) when the lhs may be true, and then under the lhs's
             refinement — so that z != 0 && k / z raises no alarm *)
          let tx = D.Itv.truth (ev x) in
          if not (snd tx) then D.Itv.of_truth (fst tx, false)
          else
            let hook = combine_hooks var_hook (cond_hook a st binds x true) in
            let ty =
              D.Itv.truth (eval ?var_hook:hook a st binds err y)
            in
            D.Itv.of_truth (fst tx || ((snd tx) && fst ty), snd tx && snd ty)
      | Lor ->
          let tx = D.Itv.truth (ev x) in
          if not (fst tx) then D.Itv.of_truth (false, snd tx)
          else
            let hook = combine_hooks var_hook (cond_hook a st binds x false) in
            let ty =
              D.Itv.truth (eval ?var_hook:hook a st binds err y)
            in
            D.Itv.of_truth (fst tx && fst ty, snd tx || ((fst tx) && snd ty))
      | Lt | Gt | Le | Ge | Eq | Ne -> (
          let ix = ev x and iy = ev y in
          if D.Itv.is_bot ix || D.Itv.is_bot iy then D.Itv.Bot
          else
            (* decide from the refinements *)
            let can_t = not (D.Itv.is_bot (Reldom.refine_cmp op ix iy)) in
            let can_f =
              not (D.Itv.is_bot (Reldom.refine_cmp (Reldom.negate_cmp op) ix iy))
            in
            (* Ne/Eq refinements are weak; make the comparison exact on
               disjoint / singleton intervals *)
            let can_t, can_f =
              match op with
              | Ne -> (
                  match (ix, iy) with
                  | D.Itv.Int (l1, h1), D.Itv.Int (l2, h2) ->
                      ( not (l1 = h1 && l2 = h2 && l1 = l2),
                        l1 <= h2 && l2 <= h1 )
                  | _ -> (can_t, can_f))
              | Eq -> (
                  match (ix, iy) with
                  | D.Itv.Int (l1, h1), D.Itv.Int (l2, h2) ->
                      (l1 <= h2 && l2 <= h1,
                       not (l1 = h1 && l2 = h2 && l1 = l2))
                  | _ -> (can_t, can_f))
              | _ -> (can_t, can_f)
            in
            D.Itv.of_truth (can_f, can_t))
      | Add | Sub | Mul -> (
          let ix = ev x and iy = ev y in
          let r =
            match op with
            | Add -> D.Itv.add ix iy
            | Sub -> D.Itv.sub ix iy
            | Mul -> D.Itv.mul ix iy
            | _ -> assert false
          in
          match e.ety with
          | F.Ctypes.Tint _ ->
              let r = clamp_int a err loc e.ety r in
              refine_linear ?var_hook a st err e r
          | F.Ctypes.Tfloat k ->
              let r = clamp_float a err loc k (round_float_result k r) in
              refine_linear ?var_hook a st err e r)
      | Div -> (
          let ix = ev x and iy = ev y in
          let iy =
            if D.Itv.contains_zero iy then begin
              report
                ~domain:(value_domain a st binds y)
                ~operands:[ operand x ix; operand y iy ]
                a err Alarm.Div_by_zero loc "divisor may be zero";
              D.Itv.exclude_zero iy
            end
            else iy
          in
          let r = D.Itv.div ix iy in
          match e.ety with
          | F.Ctypes.Tint _ -> clamp_int a err loc e.ety r
          | F.Ctypes.Tfloat k ->
              let r = clamp_float a err loc k (round_float_result k r) in
              refine_linear ?var_hook a st err e r)
      | Mod ->
          let ix = ev x and iy = ev y in
          let iy =
            if D.Itv.contains_zero iy then begin
              report
                ~domain:(value_domain a st binds y)
                ~operands:[ operand x ix; operand y iy ]
                a err Alarm.Mod_by_zero loc "modulo by possibly zero";
              D.Itv.exclude_zero iy
            end
            else iy
          in
          clamp_int a err loc e.ety (D.Itv.rem ix iy)
      | Shl | Shr ->
          let ix = ev x and iy = ev y in
          let range = D.Itv.int_range 0 31 in
          let iy =
            if not (D.Itv.subset iy range) then begin
              report
                ~domain:(value_domain a st binds y)
                ~operands:[ operand x ix; operand y iy ]
                a err Alarm.Shift_range loc "shift amount out of [0,31]";
              D.Itv.meet iy range
            end
            else iy
          in
          let r = if op = Shl then D.Itv.shl ix iy else D.Itv.shr ix iy in
          clamp_int a err loc e.ety r
      | Band | Bor | Bxor ->
          let ix = ev x and iy = ev y in
          let r =
            match op with
            | Band -> D.Itv.band ix iy
            | Bor -> D.Itv.bor ix iy
            | Bxor -> D.Itv.bxor ix iy
            | _ -> assert false
          in
          clamp_int a err loc e.ety r)
  | Ecast (s, x) -> (
      let ix = ev x in
      match (s, x.ety) with
      | F.Ctypes.Tint _, F.Ctypes.Tint _ -> clamp_int a err loc s ix
      | F.Ctypes.Tint _, F.Ctypes.Tfloat _ ->
          clamp_int a err loc s (D.Itv.float_to_int ix)
      | F.Ctypes.Tfloat k, F.Ctypes.Tint _ ->
          round_float_result k (D.Itv.int_to_float ix)
      | F.Ctypes.Tfloat k, F.Ctypes.Tfloat _ ->
          clamp_float a err loc k (round_float_result k ix))

(* A variable-refinement hook from an atomic condition: when [cond] is a
   simple comparison on a variable, reading that variable under the hook
   sees the refined range.  Used for short-circuit right-hand sides. *)
and cond_hook (a : actx) (st : Astate.t) (binds : binds) (cond : expr)
    (truth : bool) : (var -> D.Itv.t option) option =
  let refined_for (v : var) (op : binop) (other : expr) (x_on_left : bool) =
    let io = quietly a (fun () -> eval a st binds (ref false) other) in
    let op = if x_on_left then op else Reldom.swap_cmp op in
    let op = if truth then op else Reldom.negate_cmp op in
    Reldom.refine_cmp op (var_itv a st v) io
  in
  match cond.edesc with
  | Eunop (Lnot, inner) -> cond_hook a st binds inner (not truth)
  | Ebinop ((Lt | Gt | Le | Ge | Eq | Ne) as op, l, r) -> (
      match ((resolve_expr binds l).edesc, (resolve_expr binds r).edesc) with
      | Elval { ldesc = Lvar v; _ }, _ when not v.v_volatile ->
          let i = refined_for v op r true in
          Some (fun w -> if Var.equal w v then Some i else None)
      | _, Elval { ldesc = Lvar v; _ } when not v.v_volatile ->
          let i = refined_for v op l false in
          Some (fun w -> if Var.equal w v then Some i else None)
      | _ -> None)
  | Elval { ldesc = Lvar v; _ } when not v.v_volatile ->
      let i = refine_truth (var_itv a st v) truth in
      Some (fun w -> if Var.equal w v then Some i else None)
  | _ -> None

(* Compose two optional hooks; the refinement hook's answer is met with
   the outer hook's. *)
and combine_hooks (outer : (var -> D.Itv.t option) option)
    (inner : (var -> D.Itv.t option) option) : (var -> D.Itv.t option) option
    =
  match (outer, inner) with
  | None, h | h, None -> h
  | Some f, Some g ->
      Some
        (fun v ->
          match (f v, g v) with
          | Some a, Some b -> Some (D.Itv.meet a b)
          | Some a, None -> Some a
          | None, Some b -> Some b
          | None, None -> None)

(* Read an lvalue: join over its possible cells. *)
and read_lval ?var_hook (a : actx) (st : Astate.t) (binds : binds)
    (err : bool ref) (lv : lval) : D.Itv.t =
  let lv = resolve_lval binds lv in
  (match lv.ldesc with
  | Lvar v -> (
      match (var_hook, v.v_ty) with
      | Some hook, F.Ctypes.Tscalar _ -> hook v
      | _ -> None)
  | _ -> None)
  |> function
  | Some i -> i
  | None -> (
      let cells, _exact = cells_of_lval a st binds err lv in
      match cells with
      | [] -> D.Itv.Bot (* dead access *)
      | _ ->
          List.fold_left
            (fun acc id ->
              let i = cell_itv a st id in
              if D.Itv.is_bot acc then i
              else if D.Itv.is_bot i then acc
              else D.Itv.join acc i)
            D.Itv.Bot cells)

(* Possible cells of a (resolved) lvalue, with bound checking. *)
and cells_of_lval (a : actx) (st : Astate.t) (binds : binds) (err : bool ref)
    (lv : lval) : int list * bool =
  let weak_multi = ref false in
  let rec go (lv : lval) : (var * Cell.step list) list =
    match lv.ldesc with
    | Lvar v -> [ (v, []) ]
    | Lderef v -> (
        match VarMap.find_opt v binds with
        | Some actual -> go actual
        | None -> [])
    | Lfield (b, f) ->
        List.map (fun (v, p) -> (v, p @ [ Cell.Sfield f ])) (go b)
    | Lindex (b, idx) -> (
        let bases = go b in
        match b.lty with
        | F.Ctypes.Tarray (_, n) ->
            (* the subscript is bound-checked, expanded array or not *)
            let ii = eval a st binds err idx in
            let rng = D.Itv.int_range 0 (n - 1) in
            let inside = D.Itv.subset ii rng in
            if not inside then
              report
                ~domain:(value_domain a st binds idx)
                ~operands:[ operand idx ii ]
                a err Alarm.Out_of_bounds idx.eloc
                (Fmt.str "index %a outside [0,%d]" D.Itv.pp ii (n - 1));
            if n <= a.cfg.Config.expand_array_max then (
              match if inside then ii else D.Itv.meet ii rng with
              | D.Itv.Int (lo, hi) ->
                  if hi > lo then weak_multi := true;
                  List.concat_map
                    (fun (v, p) ->
                      List.init (hi - lo + 1) (fun k ->
                          (v, p @ [ Cell.Selem (lo + k) ])))
                    bases
              | _ -> [])
            else begin
              (* shrunk array: single weak cell *)
              weak_multi := true;
              List.map (fun (v, p) -> (v, p @ [ Cell.Sall ])) bases
            end
        | _ -> [])
  in
  let paths = go lv in
  let cells =
    List.filter_map
      (fun (v, path) ->
        match lv.lty with
        | F.Ctypes.Tscalar s ->
            let weak = List.mem Cell.Sall path in
            Some (Cell.lookup a.intern { Cell.root = v; path; cty = s; weak })
        | _ -> None)
      paths
  in
  let exact =
    (not !weak_multi) && List.length cells = 1
    && not (List.exists (fun id -> (Cell.of_id a.intern id).Cell.weak) cells)
  in
  (cells, exact)

(* Linearization refinement (Sect. 6.3): only when no possible error was
   recorded while evaluating the expression. *)
and refine_linear ?var_hook (a : actx) (st : Astate.t) (err : bool ref)
    (e : expr) (plain : D.Itv.t) : D.Itv.t =
  if (not a.cfg.Config.use_linearization) || !err then plain
  else
    let orc v =
      let i =
        match Option.bind var_hook (fun hook -> hook v) with
        | Some i -> i
        | None -> var_itv a st v
      in
      match D.Itv.float_hull i with
      | Some h -> h
      | None -> (Float.nan, Float.nan)
    in
    D.Linearize.refine_eval orc e plain

let c_itv_transfer = Metrics.counter "itv.transfer"
let t_itv_transfer = Metrics.timer "itv.transfer.time"

(* Timed entry point for the recursive evaluator above: later callers
   (guards, assignments, the iterator) go through this shadowing
   wrapper while the internal recursion stays on the raw [eval], so the
   interval-transfer probe meters each top-level evaluation exactly
   once. *)
let eval ?var_hook (a : actx) (st : Astate.t) (binds : binds)
    (err : bool ref) (e : expr) : D.Itv.t =
  Metrics.incr c_itv_transfer;
  let t0 = Metrics.start () in
  match eval ?var_hook a st binds err e with
  | r ->
      Metrics.stop t_itv_transfer t0;
      r
  | exception exn ->
      Metrics.stop t_itv_transfer t0;
      raise exn

(* ------------------------------------------------------------------ *)
(* Write-backs between domains (reductions)                            *)
(* ------------------------------------------------------------------ *)

(** Meet the environment value of a scalar variable with [i]. *)
let refine_var_env (a : actx) (st : Astate.t) (v : var) (i : D.Itv.t) :
    Astate.t =
  if v.v_volatile then st
  else
    match v.v_ty with
    | F.Ctypes.Tscalar s ->
        let id = var_cell a v in
        let old =
          match Env.find st.Astate.env id with
          | Some av -> av
          | None ->
              Avalue.of_itv ~use_clocked:false ~clock:st.Astate.clock
                (type_range a s)
        in
        let cur = Avalue.itv old in
        let refined = D.Itv.meet cur i in
        if D.Itv.equal refined cur then st
        else if D.Itv.is_bot refined then Astate.bottom
        else
          { st with Astate.env = Env.set st.Astate.env id (Avalue.with_itv old refined) }
    | _ -> st

(* ------------------------------------------------------------------ *)
(* Relational domains (Reldom): the reduction channel and the folds    *)
(* ------------------------------------------------------------------ *)

(* Interval evaluation for the relational domains: never alarms. *)
let quiet_eval (a : actx) (st : Astate.t) (binds : binds) hook (e : expr) :
    D.Itv.t =
  quietly a (fun () -> eval ~var_hook:hook a st binds (ref false) e)

let chan : (actx, Astate.t) Reldom.chan =
  {
    Reldom.packing = (fun a -> a.packs);
    rel = (fun st -> st.Astate.rel);
    with_rel = (fun st rel -> { st with Astate.rel });
    bottom = Astate.bottom;
    var_itv;
    refine = refine_var_env;
    eval = quiet_eval;
    resolve = resolve_expr;
    useful = mark_useful;
  }

(* One domain of [Relstate.domains] with its --profile probes: counter
   [rel.assign.NAME] and timer [rel.assign.NAME.time] around each of its
   [assign] calls, the same under [rel.guard.NAME] for [guard]. *)
type rel_domain = {
  dom : (module Reldom.S);
  c_assign : Metrics.counter;
  t_assign : Metrics.timer;
  c_guard : Metrics.counter;
  t_guard : Metrics.timer;
}

let rel_domains : rel_domain list =
  List.map
    (fun d ->
      let module M = (val d : Reldom.S) in
      let name verb = "rel." ^ verb ^ "." ^ M.name in
      {
        dom = d;
        c_assign = Metrics.counter (name "assign");
        t_assign = Metrics.timer (name "assign" ^ ".time");
        c_guard = Metrics.counter (name "guard");
        t_guard = Metrics.timer (name "guard" ^ ".time");
      })
    Relstate.domains

(* The folds below run the domains that the configuration enables, in
   product order; a domain stops seeing the state once it is bottom.
   Plain recursion, the probes inlined: no closure per statement.  A
   probe's clock also stops when the call raises. *)

let rec guard_rel a st binds cond truth = function
  | [] -> st
  | d :: ds ->
      let module M = (val d.dom : Reldom.S) in
      let st =
        if Astate.is_bot st || not (M.enabled a.cfg) then st
        else begin
          Metrics.incr d.c_guard;
          let t0 = Metrics.start () in
          match M.guard chan a st binds cond truth with
          | st ->
              Metrics.stop d.t_guard t0;
              st
          | exception exn ->
              Metrics.stop d.t_guard t0;
              raise exn
        end
      in
      guard_rel a st binds cond truth ds

let rec assign_rel a ~pre st binds x rhs rhs_itv = function
  | [] -> st
  | d :: ds ->
      let module M = (val d.dom : Reldom.S) in
      let st =
        if Astate.is_bot st || not (M.enabled a.cfg) then st
        else begin
          Metrics.incr d.c_assign;
          let t0 = Metrics.start () in
          match M.assign chan a ~pre st binds x rhs rhs_itv with
          | st ->
              Metrics.stop d.t_assign t0;
              st
          | exception exn ->
              Metrics.stop d.t_assign t0;
              raise exn
        end
      in
      assign_rel a ~pre st binds x rhs rhs_itv ds

(* ------------------------------------------------------------------ *)
(* Guards (Sect. 5.4: guard# on atomic conditions; compound ones by     *)
(* structural induction)                                                *)
(* ------------------------------------------------------------------ *)

(** guard#(E, c): refine the state under condition [cond] = [truth]. *)
let rec guard (a : actx) (st : Astate.t) (binds : binds) (cond : expr)
    (truth : bool) : Astate.t =
  if Astate.is_bot st then st
  else
    match cond.edesc with
    | Eint n -> if (n <> 0) = truth then st else Astate.bottom
    | Eunop (Lnot, inner) -> guard a st binds inner (not truth)
    | Ebinop (Land, x, y) ->
        if truth then guard a (guard a st binds x true) binds y true
        else
          Astate.join
            (guard a st binds x false)
            (guard a (guard a st binds x true) binds y false)
    | Ebinop (Lor, x, y) ->
        if truth then
          Astate.join
            (guard a st binds x true)
            (guard a (guard a st binds x false) binds y true)
        else guard a (guard a st binds x false) binds y false
    | Ebinop ((Lt | Gt | Le | Ge | Eq | Ne) as op, l, r) ->
        let err = ref false in
        let il = eval a st binds err l in
        let ir = eval a st binds err r in
        if D.Itv.is_bot il || D.Itv.is_bot ir then Astate.bottom
        else begin
          let op' = if truth then op else Reldom.negate_cmp op in
          let rl = Reldom.refine_cmp op' il ir in
          let rr = Reldom.refine_cmp (Reldom.swap_cmp op') ir il in
          if D.Itv.is_bot rl || D.Itv.is_bot rr then Astate.bottom
          else begin
            (* environment refinement on lvalues that resolve to exactly
               one strong cell (simple variables, constant-subscript
               array elements, record fields — Sect. 6.1.3: guards are
               translated like assignments) *)
            let refine_side st (e : expr) refined =
              match (resolve_expr binds e).edesc with
              | Elval ({ ldesc = Lvar v; _ }) -> refine_var_env a st v refined
              | Elval lv -> (
                  match
                    quietly a (fun () -> cells_of_lval a st binds (ref false) lv)
                  with
                  | [ id ], true -> (
                      match Env.find st.Astate.env id with
                      | Some av ->
                          let cur = Avalue.itv av in
                          let m = D.Itv.meet cur refined in
                          if D.Itv.is_bot m then Astate.bottom
                          else if D.Itv.equal m cur then st
                          else
                            { st with
                              Astate.env =
                                Env.set st.Astate.env id (Avalue.with_itv av m)
                            }
                      | None -> st)
                  | _ -> st)
              | _ -> st
            in
            let st = refine_side st l rl in
            let st = refine_side st r rr in
            guard_rel a st binds cond truth rel_domains
          end
        end
    | _ ->
        (* scalar used as truth value, e.g. after simplification *)
        let err = ref false in
        let i = eval a st binds err cond in
        let can_f, can_t = D.Itv.truth i in
        if truth && not can_t then Astate.bottom
        else if (not truth) && not can_f then Astate.bottom
        else begin
          let st =
            match (resolve_expr binds cond).edesc with
            | Elval { ldesc = Lvar v; _ } ->
                refine_var_env a st v (refine_truth i truth)
            | _ -> st
          in
          guard_rel a st binds cond truth rel_domains
        end

(* ------------------------------------------------------------------ *)
(* Assignment                                                          *)
(* ------------------------------------------------------------------ *)

(** Abstract assignment lvalue := e (Sect. 6.1.3). *)
let assign (a : actx) (st : Astate.t) (binds : binds) (lv : lval) (rhs : expr)
    : Astate.t =
  if Astate.is_bot st then st
  else begin
    let lv = resolve_lval binds lv in
    let rhs = resolve_expr binds rhs in
    let err = ref false in
    let rhs_itv = eval a st binds err rhs in
    let cells, exact = cells_of_lval a st binds err lv in
    if cells = [] then st (* certainly out of bounds: dead continuation *)
    else begin
      let use_clocked = a.cfg.Config.use_clocked in
      let clock = st.Astate.clock in
      (* clock-aware value construction: copies preserve the triple, and
         x := x + cst shifts it (which is what bounds event counters) *)
      let same_kind (i : D.Itv.t) (s : F.Ctypes.scalar) =
        match (i, s) with
        | D.Itv.Int _, F.Ctypes.Tint _ -> true
        | D.Itv.Float _, F.Ctypes.Tfloat _ -> true
        | _ -> false
      in
      let generic () = Avalue.of_itv ~use_clocked ~clock rhs_itv in
      let nv : Avalue.t =
        if not use_clocked then generic ()
        else
          (* the copy and x := y + c fast paths below meet the SOURCE
             variable's own-flow value with rhs_itv; when y is shared,
             its own-flow value excludes the rely (other tasks' writes,
             present in rhs_itv via cell_itv), so the meet would
             silently drop interference values — fall back to the
             generic construction, which keeps rhs_itv whole *)
          match rhs.edesc with
          | Elval { ldesc = Lvar y; _ }
            when F.Ctypes.is_scalar y.v_ty
                 && F.Ctypes.equal (F.Ctypes.Tscalar rhs.ety) y.v_ty -> (
              match Env.find st.Astate.env (var_cell a y) with
              | Some av when (not y.v_volatile) && not (itf_tracked_var a y)
                ->
                  Avalue.with_itv av
                    (D.Itv.meet (Avalue.itv av) rhs_itv |> fun i ->
                     if D.Itv.is_bot i then Avalue.itv av else i)
              | _ -> generic ())
          | _ -> (
              match Packing.syntactic_linear rhs with
              | Some ([ (y, 1.0) ], c)
                when F.Ctypes.equal (F.Ctypes.Tscalar rhs.ety) y.v_ty -> (
                  (* x := y + c *)
                  match Env.find st.Astate.env (var_cell a y) with
                  | Some av
                    when (not y.v_volatile)
                         && (not (itf_tracked_var a y))
                         && same_kind (Avalue.itv av) rhs.ety ->
                      let k =
                        match rhs.ety with
                        | F.Ctypes.Tint _ when Float.is_integer c ->
                            D.Itv.int_const (int_of_float c)
                        | F.Ctypes.Tint _ ->
                            D.Itv.int_range
                              (int_of_float (Float.floor c))
                              (int_of_float (Float.ceil c))
                        | F.Ctypes.Tfloat _ -> D.Itv.float_const c
                      in
                      let shifted = Avalue.add_const k av in
                      let meet_v = D.Itv.meet (Avalue.itv shifted) rhs_itv in
                      if D.Itv.is_bot meet_v then generic ()
                      else Avalue.with_itv shifted meet_v
                  | _ -> generic ())
              | _ -> generic ())
      in
      let env =
        List.fold_left
          (fun env id ->
            if exact then Env.set env id nv
            else
              (* weak update: old value or new value (Sect. 6.1.3) *)
              let old =
                match Env.find env id with
                | Some av -> av
                | None ->
                    Avalue.of_itv ~use_clocked ~clock
                      (type_range a (Cell.of_id a.intern id).Cell.cty)
              in
              Env.set env id (Avalue.join old nv))
          st.Astate.env cells
      in
      let pre = st in
      let st = { st with Astate.env = env } in
      (* interference guarantee: every abstract write to a shared cell
         records its value (rhs_itv over-approximates the stored value
         for strong and weak updates alike) *)
      (match a.session.ses_itf with
      | None -> ()
      | Some it ->
          List.iter
            (fun id ->
              let c = Cell.of_id a.intern id in
              if Hashtbl.mem it.itf_shared c.Cell.root.v_id then
                itf_record a (c.Cell.root.v_id, c.Cell.path) rhs_itv)
            cells);
      (* relational updates only for exact scalar-variable assignments *)
      match lv.ldesc with
      | Lvar x when exact && F.Ctypes.is_scalar x.v_ty ->
          assign_rel a ~pre st binds x rhs rhs_itv rel_domains
      | _ -> st
    end
  end

(** Create (or re-create) a local scalar cell (Sect. 5.2: stack cells are
    created and destroyed on the fly). *)
let local_decl (a : actx) (st : Astate.t) (binds : binds) (v : var)
    (init : expr option) : Astate.t =
  if Astate.is_bot st then st
  else
    match (v.v_ty, init) with
    | F.Ctypes.Tscalar _, Some e ->
        let lv = { ldesc = Lvar v; lty = v.v_ty; lloc = v.v_loc } in
        assign a st binds lv e
    | F.Ctypes.Tscalar s, None ->
        let id = var_cell a v in
        {
          st with
          Astate.env =
            Env.set st.Astate.env id
              (Avalue.of_itv ~use_clocked:false ~clock:st.Astate.clock
                 (type_range a s));
        }
    | _ ->
        (* aggregates: initialize all cells to their type range *)
        let cells =
          Cell.cells_of_var ~structs:a.prog.p_structs
            ~expand_array_max:a.cfg.Config.expand_array_max v
        in
        let env =
          List.fold_left
            (fun env c ->
              let id = Cell.lookup a.intern c in
              Env.set env id
                (Avalue.of_itv ~use_clocked:false ~clock:st.Astate.clock
                   (type_range a c.Cell.cty)))
            st.Astate.env cells
        in
        { st with Astate.env = env }

(* ------------------------------------------------------------------ *)
(* Clock tick                                                           *)
(* ------------------------------------------------------------------ *)

(** [__astree_wait_for_clock()]: increment the hidden clock, bounded by
    the maximal operating time (Sect. 4, 6.2.1). *)
let wait (a : actx) (st : Astate.t) : Astate.t =
  if Astate.is_bot st then st
  else begin
    let max_clock = a.cfg.Config.max_clock in
    let clock =
      D.Itv.meet
        (D.Itv.add st.Astate.clock (D.Itv.int_const 1))
        (D.Itv.int_range 0 max_clock)
    in
    if D.Itv.is_bot clock then
      (* operating-time budget exhausted: no further concrete execution *)
      Astate.bottom
    else if a.cfg.Config.use_clocked then
      { st with Astate.clock = clock; env = Env.map_all Avalue.tick st.Astate.env }
    else { st with Astate.clock = clock }
  end

(* ------------------------------------------------------------------ *)
(* Global initialization                                                *)
(* ------------------------------------------------------------------ *)

let rec init_value_itv (init : F.Tast.init) (s : F.Ctypes.scalar) : D.Itv.t =
  match (init, s) with
  | Iint n, F.Ctypes.Tint _ -> D.Itv.int_const n
  | Iint n, F.Ctypes.Tfloat _ -> D.Itv.float_const (float_of_int n)
  | Ifloat f, F.Ctypes.Tfloat _ -> D.Itv.float_const f
  | Ifloat f, F.Ctypes.Tint _ -> D.Itv.int_const (int_of_float f)
  | Izero, F.Ctypes.Tint _ -> D.Itv.int_const 0
  | Izero, F.Ctypes.Tfloat _ -> D.Itv.float_const 0.0
  | (Iarray _ | Istruct _), _ -> D.Itv.Bot (* handled structurally *)

and init_at_path (init : F.Tast.init) (path : Cell.step list)
    (s : F.Ctypes.scalar) : D.Itv.t =
  match (init, path) with
  | _, [] -> init_value_itv init s
  | Iarray items, Cell.Selem i :: rest -> (
      match List.nth_opt items i with
      | Some it -> init_at_path it rest s
      | None -> init_at_path Izero rest s)
  | Iarray items, Cell.Sall :: rest ->
      (* shrunk cell: join of all element initializers *)
      List.fold_left
        (fun acc it ->
          let i = init_at_path it rest s in
          if D.Itv.is_bot acc then i
          else if D.Itv.is_bot i then acc
          else D.Itv.join acc i)
        D.Itv.Bot items
  | Istruct fields, Cell.Sfield f :: rest -> (
      match List.assoc_opt f fields with
      | Some it -> init_at_path it rest s
      | None -> init_at_path Izero rest s)
  | Izero, _ :: rest -> init_at_path Izero rest s
  | _, _ -> init_value_itv Izero s

(** Initial abstract state: globals bound to their static initializers
    (Sect. 5.2: "the abstract interpreter first creates the global and
    static variables of the program"). *)
let initial_state (a : actx) : Astate.t =
  let ncells_hint = 4 * List.length a.prog.p_globals in
  let env =
    ref (Env.empty ~naive:a.cfg.Config.naive_environments ~ncells:ncells_hint)
  in
  let clock = D.Itv.int_const 0 in
  List.iter
    (fun (v, init) ->
      let cells =
        Cell.cells_of_var ~structs:a.prog.p_structs
          ~expand_array_max:a.cfg.Config.expand_array_max v
      in
      List.iter
        (fun (c : Cell.t) ->
          let id = Cell.lookup a.intern c in
          let i =
            if v.v_volatile then
              (* volatile inputs: any value of the spec range *)
              input_itv a v c.Cell.cty
            else init_at_path init c.Cell.path c.Cell.cty
          in
          let i = if D.Itv.is_bot i then Avalue.top_of_scalar a.prog.p_target c.Cell.cty else i in
          env :=
            Env.set !env id
              (Avalue.of_itv ~use_clocked:a.cfg.Config.use_clocked ~clock i))
        cells)
    a.prog.p_globals;
  Astate.make ~env:!env ~rel:(Relstate.top a.packs) ~clock
