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
open F.Tast

type binds = lval VarMap.t
(** bindings of by-reference parameters to actual lvalues (function
    inlining, Sect. 5.4) *)

(* ------------------------------------------------------------------ *)
(* Session types (reentrancy seam, ISSUE 6)                            *)
(* ------------------------------------------------------------------ *)

(* The iterator's extension hooks — the function-summary memo and the
   resource-governor tick — used to be module-global refs, which made
   [Analysis] a process, not a value: two concurrent analyses with
   different options would clobber each other's hooks.  They now live in a per-analysis {!session} record
   carried by the context, so a resident server can run requests with
   different configurations without any shared mutable state.  The
   types below are pure data over [Astate]/[Alarm] and are re-exported
   (with equations) by [Iterator], their historical home. *)

(** A shared cell of the multi-task interference analysis, identified
    position-independently (root variable id + access path) so keys
    marshal across processes and survive differing interner numberings. *)
type itf_key = int * Cell.step list

(** Interference context of one per-task analysis run (Miné's
    rely/guarantee iteration around this analyzer's design).  Installed
    by the outer fixpoint driver ([Astree_conc]) through the session;
    [None] — the default — leaves every transfer function byte-for-byte
    on its single-task path.

    - [itf_rely]: the rely map, joined into every read of a shared cell
      ([cell_itv]): between any two statements another task may have
      stored any value the rely covers.
    - [itf_shared]: root variable ids of the shared variables; gates
      both the read join and the value-copy fast paths of [assign]
      (copying a shared source's own-flow value would silently drop the
      rely).
    - [itf_writes]: the guarantee collector — every abstract write to a
      shared cell joins its value here, keyed position-independently. *)
type itf = {
  itf_rely : (itf_key, D.Itv.t) Hashtbl.t;
  itf_shared : (int, unit) Hashtbl.t;
  itf_writes : (itf_key, D.Itv.t) Hashtbl.t;
}

(** The side effects of one captured call, in replayable form (the
    summary cache records these; see the capture functions below). *)
type capture_delta = {
  cd_alarms : Alarm.t list;
  cd_invariants : (int * Astate.t) list;  (** sorted by loop id *)
  cd_oct_useful : int list;               (** sorted *)
  cd_joins : int;
  cd_itf_writes : (itf_key * D.Itv.t) list;
      (** shared-cell writes recorded during the call (sorted by key),
          so summary replay keeps the interference guarantee complete *)
}

(** Flow-separated analysis outcome of a statement or block.  [o_norm]
    is a disjunction of abstract states (a singleton except under trace
    partitioning). *)
type outcome = {
  o_norm : Astate.t list;
  o_brk : Astate.t;
  o_cont : Astate.t;
  o_ret : Astate.t;
  o_retv : D.Itv.t;
}

(** Everything one analyzed call produced: the state at the return
    point, the merged return value, and the side effects on the
    context's bookkeeping.  Pure data — marshalled into the on-disk
    store. *)
type summary = {
  sm_exit : Astate.t;  (** state after the return-point trace merge *)
  sm_retv : D.Itv.t;   (** return value (Bot for void / no return) *)
  sm_delta : capture_delta;
}

(** Cache key: callee content fingerprint (covers the analysis
    configuration) folded with the source locations of the callee and
    its transitive callees (replayed alarms carry them), digest of the
    abstract entry state together with the by-reference parameter
    bindings, and the alarm-collector mode — iteration-mode and
    checking-mode results are never conflated. *)
type summary_key = {
  sk_fn : string;
  sk_entry : string;
  sk_checking : bool;
}

type call_memo = {
  cm_key :
    fname:string -> checking:bool -> Astate.t -> binds ->
    summary_key option;
      (** [None]: this call is not cacheable (unknown fingerprint) *)
  cm_find : summary_key -> summary option;
  cm_add : summary_key -> summary -> unit;
  cm_hits : int ref;
  cm_misses : int ref;
  cm_want : string -> bool;
      (** gate: is this callee worth memoizing at all?  Computed once
          per session from the transitive inlined size of each function
          against [Iterator.memo_min_stmts] *)
}

(** Per-analysis session: every hook and piece of cross-cutting mutable
    state one analysis run needs, bundled so that concurrent analyses
    in one process (the [astreed] daemon, nested drivers) cannot
    corrupt each other.  Created by [new_session] (or implicitly by
    [Analysis.analyze]) and carried by the context. *)
type session = {
  mutable ses_memo : call_memo option;
      (** function-summary memo, installed by [Astree_incremental] *)
  mutable ses_tick_hook : (unit -> unit) option;
      (** consulted every 256 abstract statements (resource governor) *)
  mutable ses_ticks : int;
  mutable ses_preload : (summary_key * summary) list;
      (** summaries seeded into the memo table before any store load —
          the daemon ships its resident entries here *)
  mutable ses_collect_tables : bool;
      (** when set, [Summary.detach] records the final table below *)
  mutable ses_tables : (string * (summary_key * summary) list) list;
      (** (store key, entries) per cache attach of the run, newest
          first — the daemon absorbs these back into its resident
          store *)
  mutable ses_live : actx option;
      (** the context currently being analyzed under this session, set
          by [Analysis.analyze_prepared]; the robust subsystem reads it
          to assemble a partial result on interrupt *)
  mutable ses_itf : itf option;
      (** interference context of a multi-task per-task run, installed
          by the outer fixpoint driver ([Astree_conc]); [None] keeps
          every transfer function on its single-task path *)
}

(** Analysis context shared by all transfer functions. *)
and actx = {
  prog : program;
  cfg : Config.t;
  session : session;  (** hooks and cross-cutting per-run state *)
  packs : Packing.t;
  intern : Cell.interner;
  alarms : Alarm.collector;
  oct_useful : (int, unit) Hashtbl.t;
      (** octagon packs that improved precision (Sect. 7.2.2) *)
  oct_index : (int, Packing.oct_pack list) Hashtbl.t;
      (** variable id -> octagon packs containing it *)
  ell_index : (int, Packing.ell_pack list) Hashtbl.t;
  dt_index : (int, Packing.dt_pack list) Hashtbl.t;
  invariants : (int, Astate.t) Hashtbl.t;  (** loop id -> head invariant *)
  input_specs : (int, float * float) Hashtbl.t;  (** volatile input ranges *)
  mutable join_count : int;  (** statistics *)
}

let new_session () : session =
  {
    ses_memo = None;
    ses_tick_hook = None;
    ses_ticks = 0;
    ses_preload = [];
    ses_collect_tables = false;
    ses_tables = [];
    ses_live = None;
    ses_itf = None;
  }

let make_actx ?session (cfg : Config.t) (p : program) : actx =
  let packs = Packing.compute cfg p in
  let input_specs = Hashtbl.create 16 in
  List.iter
    (fun (spec : input_spec) ->
      Hashtbl.replace input_specs spec.in_var.v_id (spec.in_lo, spec.in_hi))
    p.p_inputs;
  let oct_index = Hashtbl.create 64 in
  List.iter
    (fun (op : Packing.oct_pack) ->
      Array.iter
        (fun v ->
          Hashtbl.replace oct_index v.v_id
            (op :: Option.value (Hashtbl.find_opt oct_index v.v_id) ~default:[]))
        op.op_vars)
    packs.Packing.octs;
  let ell_index = Hashtbl.create 64 in
  List.iter
    (fun (ep : Packing.ell_pack) ->
      Array.iter
        (fun v ->
          Hashtbl.replace ell_index v.v_id
            (ep :: Option.value (Hashtbl.find_opt ell_index v.v_id) ~default:[]))
        ep.ep_vars)
    packs.Packing.ells;
  let dt_index = Hashtbl.create 64 in
  List.iter
    (fun (dp : Packing.dt_pack) ->
      Array.iter
        (fun v ->
          Hashtbl.replace dt_index v.v_id
            (dp :: Option.value (Hashtbl.find_opt dt_index v.v_id) ~default:[]))
        (Array.append dp.dp_bools dp.dp_nums))
    packs.Packing.dts;
  {
    prog = p;
    cfg;
    session = (match session with Some s -> s | None -> new_session ());
    packs;
    intern = Cell.make_interner ();
    alarms = Alarm.make_collector ();
    oct_useful = Hashtbl.create 16;
    oct_index;
    ell_index;
    dt_index;
    invariants = Hashtbl.create 16;
    input_specs;
    join_count = 0;
  }

let oct_packs_of (a : actx) (v : var) : Packing.oct_pack list =
  Option.value (Hashtbl.find_opt a.oct_index v.v_id) ~default:[]

let ell_packs_of (a : actx) (v : var) : Packing.ell_pack list =
  Option.value (Hashtbl.find_opt a.ell_index v.v_id) ~default:[]

let dt_packs_of (a : actx) (v : var) : Packing.dt_pack list =
  Option.value (Hashtbl.find_opt a.dt_index v.v_id) ~default:[]


(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

(** Cell id of a scalar variable. *)
let var_cell (a : actx) (v : var) : int =
  match v.v_ty with
  | F.Ctypes.Tscalar s ->
      Cell.intern a.intern { Cell.root = v; path = []; cty = s; weak = false }
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

(** Record an abstract write of [value] to the shared cell keyed [key]
    into the guarantee collector (join-on-add: the collector
    over-approximates the union of every value this task may store). *)
let itf_record (it : itf) (key : itf_key) (value : D.Itv.t) : unit =
  let joined =
    match Hashtbl.find_opt it.itf_writes key with
    | Some old -> D.Itv.join old value
    | None -> value
  in
  Hashtbl.replace it.itf_writes key joined

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

(** Oracle for the linearizer and relational domains: float hull of a
    scalar variable. *)
let oracle (a : actx) (st : Astate.t) : var -> float * float =
 fun v ->
  match v.v_ty with
  | F.Ctypes.Tscalar _ -> (
      match D.Itv.float_hull (var_itv a st v) with
      | Some h -> h
      | None -> (Float.nan, Float.nan) (* unreachable value *))
  | _ -> (Float.neg_infinity, Float.infinity)

(* ------------------------------------------------------------------ *)
(* Lvalue resolution                                                   *)
(* ------------------------------------------------------------------ *)

(** Substitute by-reference parameter bindings away. *)
let rec resolve_lval (binds : binds) (lv : lval) : lval =
  match lv.ldesc with
  | Lvar _ -> lv
  | Lderef v -> (
      match VarMap.find_opt v binds with
      | Some actual -> actual
      | None -> lv)
  | Lindex (b, i) ->
      { lv with ldesc = Lindex (resolve_lval binds b, resolve_expr binds i) }
  | Lfield (b, f) -> { lv with ldesc = Lfield (resolve_lval binds b, f) }

and resolve_expr (binds : binds) (e : expr) : expr =
  match e.edesc with
  | Eint _ | Efloat _ -> e
  | Elval lv -> { e with edesc = Elval (resolve_lval binds lv) }
  | Eunop (op, x) -> { e with edesc = Eunop (op, resolve_expr binds x) }
  | Ebinop (op, x, y) ->
      { e with edesc = Ebinop (op, resolve_expr binds x, resolve_expr binds y) }
  | Ecast (s, x) -> { e with edesc = Ecast (s, resolve_expr binds x) }

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
   variables of [e]?  Two variables sharing an octagon pack means the
   check ran under octagon constraints; a single packed variable points
   at its ellipsoid / decision tree; a variable whose clocked components
   carry information was bounded by the clock; everything else is the
   plain interval evaluation. *)
let value_domain (a : actx) (st : Astate.t) (binds : binds) (e : expr) :
    string =
  let vars =
    VarSet.elements (F.Tast.expr_vars (resolve_expr binds e) VarSet.empty)
  in
  let in_pack (op : Packing.oct_pack) v =
    Array.exists (fun (w : var) -> w.v_id = v.v_id) op.Packing.op_vars
  in
  let shares_oct =
    match vars with
    | [] | [ _ ] -> false
    | vs ->
        List.exists
          (fun op -> List.length (List.filter (in_pack op) vs) >= 2)
          (List.concat_map (oct_packs_of a) vs)
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
  if shares_oct then "octagon"
  else if List.exists (fun v -> ell_packs_of a v <> []) vars then "ellipsoid"
  else if List.exists (fun v -> dt_packs_of a v <> []) vars then
    "decision-tree"
  else if List.exists clocked vars then "clocked"
  else "interval"

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

(* Truth interval of a scalar interval: (can_be_zero, can_be_nonzero). *)
let truthiness (i : D.Itv.t) : bool * bool =
  match i with
  | D.Itv.Bot -> (false, false)
  | D.Itv.Int (lo, hi) -> (lo <= 0 && hi >= 0, not (lo = 0 && hi = 0))
  | D.Itv.Float (lo, hi) -> (lo <= 0.0 && hi >= 0.0, not (lo = 0.0 && hi = 0.0))

let bool_itv (can_f, can_t) : D.Itv.t =
  match (can_f, can_t) with
  | false, false -> D.Itv.Bot
  | true, false -> D.Itv.int_const 0
  | false, true -> D.Itv.int_const 1
  | true, true -> D.Itv.int_range 0 1

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
          let can_f, can_t = truthiness ix in
          (* !x is true when x is zero *)
          bool_itv (can_t, can_f)
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
          let tx = truthiness (ev x) in
          if not (snd tx) then bool_itv (fst tx, false)
          else
            let hook = combine_hooks var_hook (cond_hook a st binds x true) in
            let ty =
              truthiness (eval ?var_hook:hook a st binds err y)
            in
            bool_itv (fst tx || ((snd tx) && fst ty), snd tx && snd ty)
      | Lor ->
          let tx = truthiness (ev x) in
          if not (fst tx) then bool_itv (false, snd tx)
          else
            let hook = combine_hooks var_hook (cond_hook a st binds x false) in
            let ty =
              truthiness (eval ?var_hook:hook a st binds err y)
            in
            bool_itv (fst tx && fst ty, snd tx || ((fst tx) && snd ty))
      | Lt | Gt | Le | Ge | Eq | Ne -> (
          let ix = ev x and iy = ev y in
          if D.Itv.is_bot ix || D.Itv.is_bot iy then D.Itv.Bot
          else
            (* decide from the refinements *)
            let can_t =
              not
                (D.Itv.is_bot
                   (match op with
                   | Lt -> D.Itv.refine_lt ix iy
                   | Gt -> D.Itv.refine_gt ix iy
                   | Le -> D.Itv.refine_le ix iy
                   | Ge -> D.Itv.refine_ge ix iy
                   | Eq -> D.Itv.refine_eq ix iy
                   | Ne -> D.Itv.refine_ne ix iy
                   | _ -> assert false))
            in
            let can_f =
              not
                (D.Itv.is_bot
                   (match op with
                   | Lt -> D.Itv.refine_ge ix iy
                   | Gt -> D.Itv.refine_le ix iy
                   | Le -> D.Itv.refine_gt ix iy
                   | Ge -> D.Itv.refine_lt ix iy
                   | Eq -> D.Itv.refine_ne ix iy
                   | Ne -> D.Itv.refine_eq ix iy
                   | _ -> assert false))
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
            bool_itv (can_f, can_t))
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
    let err = ref false in
    let saved = a.alarms.Alarm.enabled in
    a.alarms.Alarm.enabled <- false;
    let io = eval a st binds err other in
    a.alarms.Alarm.enabled <- saved;
    let base = var_itv a st v in
    let op = if x_on_left then op
      else match op with
        | Lt -> Gt | Gt -> Lt | Le -> Ge | Ge -> Le | o -> o
    in
    let op = if truth then op
      else match op with
        | Lt -> Ge | Ge -> Lt | Gt -> Le | Le -> Gt | Eq -> Ne | Ne -> Eq
        | o -> o
    in
    match op with
    | Lt -> D.Itv.refine_lt base io
    | Gt -> D.Itv.refine_gt base io
    | Le -> D.Itv.refine_le base io
    | Ge -> D.Itv.refine_ge base io
    | Eq -> D.Itv.refine_eq base io
    | Ne -> D.Itv.refine_ne base io
    | _ -> base
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
      let base = var_itv a st v in
      let i =
        if truth then
          D.Itv.refine_ne base
            (match base with
            | D.Itv.Float _ -> D.Itv.float_const 0.0
            | _ -> D.Itv.int_const 0)
        else
          D.Itv.meet base
            (match base with
            | D.Itv.Float _ -> D.Itv.float_const 0.0
            | _ -> D.Itv.int_const 0)
      in
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
          | Some a, Some b ->
              let m = D.Itv.meet a b in
              Some m
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
      | Some hook, F.Ctypes.Tscalar _ -> (
          match hook v with Some i -> Some i | None -> None)
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
            if n <= a.cfg.Config.expand_array_max then begin
              let ii = eval a st binds err idx in
              let rng = D.Itv.int_range 0 (n - 1) in
              let ii =
                if not (D.Itv.subset ii rng) then begin
                  report
                    ~domain:(value_domain a st binds idx)
                    ~operands:[ operand idx ii ]
                    a err Alarm.Out_of_bounds idx.eloc
                    (Fmt.str "index %a outside [0,%d]" D.Itv.pp ii (n - 1));
                  D.Itv.meet ii rng
                end
                else ii
              in
              match ii with
              | D.Itv.Int (lo, hi) ->
                  if hi > lo then weak_multi := true;
                  List.concat_map
                    (fun (v, p) ->
                      List.init (hi - lo + 1) (fun k ->
                          (v, p @ [ Cell.Selem (lo + k) ])))
                    bases
              | _ -> []
            end
            else begin
              (* shrunk array: single weak cell; the subscript is still
                 bound-checked *)
              let ii = eval a st binds err idx in
              let rng = D.Itv.int_range 0 (n - 1) in
              if not (D.Itv.subset ii rng) then
                report
                  ~domain:(value_domain a st binds idx)
                  ~operands:[ operand idx ii ]
                  a err Alarm.Out_of_bounds idx.eloc
                  (Fmt.str "index %a outside [0,%d]" D.Itv.pp ii (n - 1));
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
            Some (Cell.intern a.intern { Cell.root = v; path; cty = s; weak })
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
      let base =
        match var_hook with
        | Some hook -> ( match hook v with Some i -> Some i | None -> None)
        | None -> None
      in
      let i = match base with Some i -> i | None -> var_itv a st v in
      match D.Itv.float_hull i with
      | Some h -> h
      | None -> (Float.nan, Float.nan)
    in
    D.Linearize.refine_eval orc e plain

(* Timed entry point for the recursive evaluator above: later callers
   (guards, assignments, the iterator) go through this shadowing
   wrapper while the internal recursion stays on the raw [eval], so the
   interval-transfer probe meters each top-level evaluation exactly
   once. *)
let eval ?var_hook (a : actx) (st : Astate.t) (binds : binds)
    (err : bool ref) (e : expr) : D.Itv.t =
  D.Profile.count D.Profile.itv_transfer;
  let t0 = D.Profile.start () in
  match eval ?var_hook a st binds err e with
  | r ->
      D.Profile.stop D.Profile.itv_transfer t0;
      r
  | exception exn ->
      D.Profile.stop D.Profile.itv_transfer t0;
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

(** Pull interval bounds out of the octagons for [vars] and meet them
    into the environment, tracking pack usefulness (Sect. 7.2.2). *)
let writeback_octagons (a : actx) (st : Astate.t) (vars : var list) : Astate.t =
  if not a.cfg.Config.use_octagons then st
  else
    List.fold_left
      (fun st v ->
        List.fold_left
          (fun st (op : Packing.oct_pack) ->
            match Ptmap.find_opt op.op_id st.Astate.rel.Relstate.octs with
            | None -> st
            | Some o -> (
                if D.Octagon.is_bot o then Astate.bottom
                else
                  match D.Octagon.get_bounds o v with
                  | Some (lo, hi)
                    when lo > Float.neg_infinity || hi < Float.infinity -> (
                      let cur = var_itv a st v in
                      let bound =
                        match cur with
                        | D.Itv.Int _ ->
                            D.Itv.int_range
                              (if lo = Float.neg_infinity then min_int
                               else int_of_float (Float.floor lo))
                              (if hi = Float.infinity then max_int
                               else int_of_float (Float.ceil hi))
                        | D.Itv.Float _ -> D.Itv.float_range lo hi
                        | D.Itv.Bot -> D.Itv.Bot
                      in
                      match bound with
                      | D.Itv.Bot -> st
                      | bound ->
                          let refined = D.Itv.meet cur bound in
                          if
                            (not (D.Itv.equal refined cur))
                            && not (D.Itv.is_bot refined)
                          then begin
                            Hashtbl.replace a.oct_useful op.op_id ();
                            refine_var_env a st v refined
                          end
                          else st)
                  | _ -> st))
          st
          (oct_packs_of a v))
      st vars

(** Pull bounds out of the decision trees for [v]. *)
let writeback_dtrees (a : actx) (st : Astate.t) (v : var) : Astate.t =
  if not a.cfg.Config.use_decision_trees then st
  else
    List.fold_left
      (fun st (dp : Packing.dt_pack) ->
        match Ptmap.find_opt dp.dp_id st.Astate.rel.Relstate.dts with
        | None -> st
        | Some d -> (
            if D.Decision_tree.is_bot d then Astate.bottom
            else
              match D.Decision_tree.get_num d v with
              | Some i -> refine_var_env a st v i
              | None -> (
                  if Array.exists (Var.equal v) dp.dp_bools then
                    let can_f, can_t = D.Decision_tree.get_bool d v in
                    refine_var_env a st v (bool_itv (can_f, can_t))
                  else st)))
      st
      (dt_packs_of a v)

(** Pull a magnitude bound out of the ellipsoids for [v] (the paper's
    |X'| <= 2 sqrt(b . r / (4b - a^2)) reduction). *)
let writeback_ellipsoids (a : actx) (st : Astate.t) (v : var) : Astate.t =
  if not a.cfg.Config.use_ellipsoids then st
  else
    List.fold_left
      (fun st (ep : Packing.ell_pack) ->
        match Ptmap.find_opt ep.ep_id st.Astate.rel.Relstate.ells with
        | None -> st
        | Some el -> (
            match D.Ellipsoid.best_bound el v with
            | Some m -> refine_var_env a st v (D.Itv.float_range (-.m) m)
            | None -> st))
      st
      (ell_packs_of a v)

(* ------------------------------------------------------------------ *)
(* Decision-tree helpers                                               *)
(* ------------------------------------------------------------------ *)

(* Evaluate an expression with a leaf-local variable hook. *)
let eval_in_leaf (a : actx) (st : Astate.t) (binds : binds)
    (dp : Packing.dt_pack) (path : (int * bool) list)
    (leaf : D.Itv.t VarMap.t) (e : expr) : D.Itv.t =
  let hook (v : var) : D.Itv.t option =
    match List.assoc_opt v.v_id path with
    | Some b -> Some (D.Itv.int_const (if b then 1 else 0))
    | None -> (
        match VarMap.find_opt v leaf with
        | Some i -> Some (D.Itv.meet i (var_itv a st v))
        | None ->
            if Array.exists (Var.equal v) dp.dp_nums then
              Some (var_itv a st v)
            else None)
  in
  let err = ref false in
  let saved = a.alarms.Alarm.enabled in
  a.alarms.Alarm.enabled <- false;  (* leaf-local evaluation never alarms *)
  let r = eval ~var_hook:hook a st binds err e in
  a.alarms.Alarm.enabled <- saved;
  r

(* Integer casts of truth-valued expressions (0/1) are value-preserving;
   strip them so condition shapes are recognized. *)
let rec strip_bool_casts (e : expr) : expr =
  match e.edesc with
  | Ecast
      ( F.Ctypes.Tint _,
        ({ edesc = Ebinop ((Lt | Gt | Le | Ge | Eq | Ne | Land | Lor), _, _); _ }
         as inner) ) ->
      strip_bool_casts inner
  | Ecast (F.Ctypes.Tint _, ({ edesc = Eunop (Lnot, _); _ } as inner)) ->
      strip_bool_casts inner
  | _ -> e

(* Refine a leaf under [cond = truth] by backward interval refinement on
   pack numerical variables occurring in simple comparisons. *)
let refine_leaf (a : actx) (st : Astate.t) (binds : binds)
    (dp : Packing.dt_pack) (path : (int * bool) list) (cond : expr)
    (truth : bool) (leaf : D.Itv.t VarMap.t) : D.Itv.t VarMap.t option =
  let cond = strip_bool_casts cond in
  (* quick unsatisfiability check *)
  let i = eval_in_leaf a st binds dp path leaf cond in
  let can_f, can_t = truthiness i in
  if (truth && not can_t) || ((not truth) && not can_f) then None
  else
    (* refine x for conditions (x cmp e) / (e cmp x) with x a pack num *)
    let refine_one (x : var) (op : binop) (other : expr) (x_on_left : bool)
        (leaf : D.Itv.t VarMap.t) : D.Itv.t VarMap.t option =
      if not (Array.exists (Var.equal x) dp.dp_nums) then Some leaf
      else begin
        let base =
          match VarMap.find_opt x leaf with
          | Some i -> D.Itv.meet i (var_itv a st x)
          | None -> var_itv a st x
        in
        let io = eval_in_leaf a st binds dp path leaf other in
        let op = if x_on_left then op else (
          match op with
          | Lt -> Gt | Gt -> Lt | Le -> Ge | Ge -> Le | o -> o)
        in
        let op = if truth then op else (
          match op with
          | Lt -> Ge | Ge -> Lt | Gt -> Le | Le -> Gt | Eq -> Ne | Ne -> Eq
          | o -> o)
        in
        let refined =
          match op with
          | Lt -> D.Itv.refine_lt base io
          | Gt -> D.Itv.refine_gt base io
          | Le -> D.Itv.refine_le base io
          | Ge -> D.Itv.refine_ge base io
          | Eq -> D.Itv.refine_eq base io
          | Ne -> D.Itv.refine_ne base io
          | _ -> base
        in
        if D.Itv.is_bot refined then None
        else Some (VarMap.add x refined leaf)
      end
    in
    match cond.edesc with
    | Ebinop ((Lt | Gt | Le | Ge | Eq | Ne) as op, l, r) -> (
        let leaf' =
          match l.edesc with
          | Elval { ldesc = Lvar x; _ } -> refine_one x op r true leaf
          | Ecast (_, { edesc = Elval { ldesc = Lvar x; _ }; _ }) ->
              refine_one x op r true leaf
          | _ -> Some leaf
        in
        match leaf' with
        | None -> None
        | Some leaf' -> (
            match r.edesc with
            | Elval { ldesc = Lvar x; _ } -> refine_one x op l false leaf'
            | Ecast (_, { edesc = Elval { ldesc = Lvar x; _ }; _ }) ->
                refine_one x op l false leaf'
            | _ -> Some leaf'))
    | _ -> Some leaf

(* ------------------------------------------------------------------ *)
(* Guards (Sect. 5.4: guard# on atomic conditions; compound ones by     *)
(* structural induction)                                                *)
(* ------------------------------------------------------------------ *)

(* Is the condition a (possibly negated) boolean variable test?  After
   elaboration these have the shape (b != 0), (b == 0) or !(...). *)
let rec as_bool_var_test (e : expr) : (var * bool) option =
  match e.edesc with
  | Elval { ldesc = Lvar b; _ } when F.Ctypes.is_bool b.v_ty -> Some (b, true)
  | Ebinop (Ne, { edesc = Elval { ldesc = Lvar b; _ }; _ }, { edesc = Eint 0; _ })
    when F.Ctypes.is_bool b.v_ty ->
      Some (b, true)
  | Ebinop (Eq, { edesc = Elval { ldesc = Lvar b; _ }; _ }, { edesc = Eint 0; _ })
    when F.Ctypes.is_bool b.v_ty ->
      Some (b, false)
  | Eunop (Lnot, inner) ->
      Option.map (fun (b, v) -> (b, not v)) (as_bool_var_test inner)
  | _ -> None

let negate_cmp : binop -> binop = function
  | Lt -> Ge | Ge -> Lt | Gt -> Le | Le -> Gt | Eq -> Ne | Ne -> Eq
  | op -> op

(* Guard the octagons with (l cmp r) [truth], through linear forms. *)
let guard_octagons (a : actx) (st : Astate.t) (binds : binds) (op : binop)
    (l : expr) (r : expr) (truth : bool) : Astate.t =
  if (not a.cfg.Config.use_octagons) || Ptmap.is_empty st.Astate.rel.Relstate.octs
  then st
  else begin
    let op = if truth then op else negate_cmp op in
    let orc v =
      match D.Itv.float_hull (var_itv a st v) with
      | Some h -> h
      | None -> (Float.nan, Float.nan)
    in
    let l = resolve_expr binds l and r = resolve_expr binds r in
    match (D.Linearize.linearize orc l, D.Linearize.linearize orc r) with
    | Some fl, Some fr ->
        (* all forms are applied to ONE copy of each touched pack
           octagon ([guard_le_zero] restores closure incrementally
           between them), so an equality — two opposite inequalities —
           costs one copy per pack instead of a copy-close-copy chain *)
        let apply_le_zero st forms =
          let vars =
            List.concat_map D.Linear_form.vars forms
            |> List.sort_uniq Var.compare
          in
          let touched =
            List.concat_map (fun v -> oct_packs_of a v) vars
            |> List.sort_uniq (fun (x : Packing.oct_pack) y ->
                   Int.compare x.op_id y.op_id)
          in
          let octs =
            List.fold_left
              (fun octs (op_ : Packing.oct_pack) ->
                match Ptmap.find_opt op_.op_id octs with
                | None -> octs
                | Some o ->
                    let o' = D.Octagon.copy o in
                    List.iter (fun f -> D.Octagon.guard_le_zero o' orc f) forms;
                    Ptmap.add op_.op_id o' octs)
              st.Astate.rel.Relstate.octs touched
          in
          { st with Astate.rel = { st.Astate.rel with Relstate.octs } }
        in
        (* over the integers a < b is a - b + 1 <= 0: recover the unit
           the real-field octagon would lose on strict comparisons *)
        let both_int =
          F.Ctypes.is_integer (F.Ctypes.Tscalar l.ety)
          && F.Ctypes.is_integer (F.Ctypes.Tscalar r.ety)
        in
        let one = D.Linear_form.of_interval 1.0 1.0 in
        let strictify f = if both_int then D.Linear_form.add f one else f in
        let st =
          match op with
          | Le -> apply_le_zero st [ D.Linear_form.sub fl fr ]
          | Lt -> apply_le_zero st [ strictify (D.Linear_form.sub fl fr) ]
          | Ge -> apply_le_zero st [ D.Linear_form.sub fr fl ]
          | Gt -> apply_le_zero st [ strictify (D.Linear_form.sub fr fl) ]
          | Eq ->
              apply_le_zero st
                [ D.Linear_form.sub fl fr; D.Linear_form.sub fr fl ]
          | _ -> st
        in
        (* pull refined bounds back into the environment, for every
           variable of the touched packs: the closure typically improves
           other pack members than those occurring in the condition (the
           paper's rate-limiter example bounds L from the guard on R) *)
        let guard_vars = D.Linear_form.vars fl @ D.Linear_form.vars fr in
        let pack_vars =
          List.concat_map
            (fun v ->
              List.concat_map
                (fun (op_ : Packing.oct_pack) -> Array.to_list op_.op_vars)
                (oct_packs_of a v))
            guard_vars
        in
        let vars = List.sort_uniq Var.compare (guard_vars @ pack_vars) in
        writeback_octagons a st vars
    | _ -> st
  end

(* Guard the decision trees. *)
let guard_dtrees (a : actx) (st : Astate.t) (binds : binds) (cond : expr)
    (truth : bool) : Astate.t =
  if not a.cfg.Config.use_decision_trees then st
  else
    match as_bool_var_test cond with
    | Some (b, pos) ->
        let value = if truth then pos else not pos in
        let dts = ref st.Astate.rel.Relstate.dts in
        let changed = ref [] in
        List.iter
          (fun (dp : Packing.dt_pack) ->
            match Ptmap.find_opt dp.dp_id !dts with
            | None -> ()
            | Some d ->
                let d' = D.Decision_tree.guard_bool d b value in
                dts := Ptmap.add dp.dp_id d' !dts;
                changed := dp :: !changed)
          (dt_packs_of a b);
        let st =
          { st with Astate.rel = { st.Astate.rel with Relstate.dts = !dts } }
        in
        (* write back bounds for the numerical variables of changed packs *)
        List.fold_left
          (fun st (dp : Packing.dt_pack) ->
            Array.fold_left (fun st v -> writeback_dtrees a st v) st dp.dp_nums)
          st !changed
    | None -> (
        match cond.edesc with
        | Ebinop ((Lt | Gt | Le | Ge | Eq | Ne), _, _) ->
            let vars =
              VarSet.elements (expr_vars cond VarSet.empty)
              |> List.filter (fun v -> F.Ctypes.is_scalar v.v_ty)
            in
            let touched =
              List.concat_map (fun v -> dt_packs_of a v) vars
              |> List.sort_uniq (fun (x : Packing.dt_pack) y ->
                     Int.compare x.dp_id y.dp_id)
            in
            List.fold_left
              (fun st (dp : Packing.dt_pack) ->
                match Ptmap.find_opt dp.dp_id st.Astate.rel.Relstate.dts with
                | None -> st
                | Some d ->
                    let d' =
                      D.Decision_tree.guard_num d (fun path leaf ->
                          match leaf with
                          | None -> None
                          | Some m ->
                              refine_leaf a st binds dp path cond truth m)
                    in
                    let st =
                      {
                        st with
                        Astate.rel =
                          {
                            st.Astate.rel with
                            Relstate.dts =
                              Ptmap.add dp.dp_id d' st.Astate.rel.Relstate.dts;
                          };
                      }
                    in
                    Array.fold_left
                      (fun st v -> writeback_dtrees a st v)
                      st dp.dp_nums)
              st touched
        | _ -> st)

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
          let op' = if truth then op else negate_cmp op in
          let rl =
            match op' with
            | Lt -> D.Itv.refine_lt il ir
            | Gt -> D.Itv.refine_gt il ir
            | Le -> D.Itv.refine_le il ir
            | Ge -> D.Itv.refine_ge il ir
            | Eq -> D.Itv.refine_eq il ir
            | Ne -> D.Itv.refine_ne il ir
            | _ -> il
          in
          let rr =
            match op' with
            | Lt -> D.Itv.refine_gt ir il
            | Gt -> D.Itv.refine_lt ir il
            | Le -> D.Itv.refine_ge ir il
            | Ge -> D.Itv.refine_le ir il
            | Eq -> D.Itv.refine_eq ir il
            | Ne -> D.Itv.refine_ne ir il
            | _ -> ir
          in
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
                  let err2 = ref false in
                  let saved = a.alarms.Alarm.enabled in
                  a.alarms.Alarm.enabled <- false;
                  let cells, exact = cells_of_lval a st binds err2 lv in
                  a.alarms.Alarm.enabled <- saved;
                  match cells with
                  | [ id ] when exact && not (Cell.of_id a.intern id).Cell.weak
                    -> (
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
            if Astate.is_bot st then st
            else
              let st = guard_octagons a st binds op l r truth in
              if Astate.is_bot st then st
              else guard_dtrees a st binds cond truth
          end
        end
    | _ ->
        (* scalar used as truth value, e.g. after simplification *)
        let err = ref false in
        let i = eval a st binds err cond in
        let can_f, can_t = truthiness i in
        if truth && not can_t then Astate.bottom
        else if (not truth) && not can_f then Astate.bottom
        else begin
          let st =
            match (resolve_expr binds cond).edesc with
            | Elval { ldesc = Lvar v; _ } ->
                let refined =
                  if truth then
                    D.Itv.refine_ne i
                      (match i with
                      | D.Itv.Float _ -> D.Itv.float_const 0.0
                      | _ -> D.Itv.int_const 0)
                  else
                    D.Itv.meet i
                      (match i with
                      | D.Itv.Float _ -> D.Itv.float_const 0.0
                      | _ -> D.Itv.int_const 0)
                in
                refine_var_env a st v refined
            | _ -> st
          in
          guard_dtrees a st binds cond truth
        end

(* ------------------------------------------------------------------ *)
(* Relational assignment updates                                        *)
(* ------------------------------------------------------------------ *)

let assign_octagons (a : actx) (st : Astate.t) (x : var) (rhs : expr)
    (rhs_itv : D.Itv.t) : Astate.t =
  if not a.cfg.Config.use_octagons then st
  else begin
    let packs = oct_packs_of a x in
    if packs = [] then st
    else begin
      let orc v =
        match D.Itv.float_hull (var_itv a st v) with
        | Some h -> h
        | None -> (Float.nan, Float.nan)
      in
      let form = D.Linearize.linearize orc rhs in
      let octs =
        List.fold_left
          (fun octs (op_ : Packing.oct_pack) ->
            match Ptmap.find_opt op_.op_id octs with
            | None -> octs
            | Some o ->
                let o' = D.Octagon.copy o in
                (match form with
                | Some form -> D.Octagon.assign o' orc x form
                | None -> (
                    D.Octagon.forget o' x;
                    match D.Itv.float_hull rhs_itv with
                    | Some (lo, hi) -> D.Octagon.set_bounds o' x (lo, hi)
                    | None -> ()));
                Ptmap.add op_.op_id o' octs)
          st.Astate.rel.Relstate.octs packs
      in
      let st = { st with Astate.rel = { st.Astate.rel with Relstate.octs } } in
      writeback_octagons a st [ x ]
    end
  end

let assign_ellipsoids (a : actx) (st : Astate.t) (x : var) (rhs : expr) :
    Astate.t =
  if not a.cfg.Config.use_ellipsoids then st
  else begin
    let packs = ell_packs_of a x in
    if packs = [] then st
    else begin
      let lin = Packing.syntactic_linear rhs in
      let ells = ref st.Astate.rel.Relstate.ells in
      List.iter
        (fun (ep : Packing.ell_pack) ->
          match Ptmap.find_opt ep.ep_id !ells with
          | None -> ()
          | Some el ->
              let el' =
                match rhs.edesc with
                (* case 1: straight copy x := y *)
                | Elval { ldesc = Lvar y; _ } when D.Ellipsoid.mem_var el y ->
                    D.Ellipsoid.assign_copy el x y
                | Ecast (_, { edesc = Elval { ldesc = Lvar y; _ }; _ })
                  when D.Ellipsoid.mem_var el y ->
                    D.Ellipsoid.assign_copy el x y
                | _ -> (
                    (* case 2: the filter update x := a.y - b.z + t *)
                    match lin with
                    | Some (terms, _c)
                      when Var.equal x ep.ep_x
                           && List.exists
                                (fun (v, k) -> Var.equal v ep.ep_y && k = ep.ep_a)
                                terms
                           && List.exists
                                (fun (v, k) ->
                                  Var.equal v ep.ep_z && k = -.ep.ep_b)
                                terms ->
                        (* bound the residual t with the intervals *)
                        let err = ref false in
                        let saved = a.alarms.Alarm.enabled in
                        a.alarms.Alarm.enabled <- false;
                        let t_itv =
                          let rest =
                            List.filter
                              (fun (v, _) ->
                                not
                                  (Var.equal v ep.ep_y || Var.equal v ep.ep_z))
                              terms
                          in
                          let base = eval a st VarMap.empty err rhs in
                          ignore base;
                          (* conservative: evaluate rhs - a.y + b.z via
                             intervals of the residual terms *)
                          List.fold_left
                            (fun acc (v, k) ->
                              let vi = var_itv a st v in
                              let term =
                                D.Itv.mul (D.Itv.float_const k)
                                  (D.Itv.int_to_float vi)
                              in
                              match (acc, term) with
                              | D.Itv.Bot, t -> t
                              | acc, t -> D.Itv.add acc t)
                            (D.Itv.float_const
                               (match lin with Some (_, c) -> c | None -> 0.0))
                            rest
                        in
                        a.alarms.Alarm.enabled <- saved;
                        let t_max =
                          match D.Itv.float_hull t_itv with
                          | Some (lo, hi) ->
                              Float.max (Float.abs lo) (Float.abs hi)
                          | None -> 0.0
                        in
                        (* pre-assignment reduction of r(y, z) from the
                           intervals (the paper's third reduction step) *)
                        let orc v =
                          match D.Itv.float_hull (var_itv a st v) with
                          | Some h -> h
                          | None -> (Float.nan, Float.nan)
                        in
                        let el =
                          D.Ellipsoid.reduce_from_intervals orc el ep.ep_y
                            ep.ep_z
                        in
                        D.Ellipsoid.assign_filter el x ep.ep_y ep.ep_z ~t_max
                    | _ -> D.Ellipsoid.assign_other el x)
              in
              (* reduction with the interval domain, run eagerly after
                 every pack-variable assignment; this is what seeds the
                 ellipsoid after a reinitialization iteration (the paper
                 stresses these reduction steps are "especially useful in
                 handling a reinitialization iteration") *)
              let orc v =
                match D.Itv.float_hull (var_itv a st v) with
                | Some h -> h
                | None -> (Float.nan, Float.nan)
              in
              (* equality of two pack variables is established through the
                 octagons *)
              let equal_vars u w =
                Var.equal u w
                || List.exists
                  (fun (op_ : Packing.oct_pack) ->
                    match
                      Ptmap.find_opt op_.op_id st.Astate.rel.Relstate.octs
                    with
                    | Some o -> (
                        match D.Octagon.get_diff_bounds o u w with
                        | Some (lo, hi) -> lo = 0.0 && hi = 0.0
                        | None -> false)
                    | None -> false)
                  (oct_packs_of a u)
              in
              let el' =
                Array.fold_left
                  (fun el u ->
                    Array.fold_left
                      (fun el w ->
                        D.Ellipsoid.reduce_from_intervals ~equal_vars orc el u
                          w)
                      el ep.ep_vars)
                  el' ep.ep_vars
              in
              ells := Ptmap.add ep.ep_id el' !ells)
        packs;
      let st =
        { st with Astate.rel = { st.Astate.rel with Relstate.ells = !ells } }
      in
      writeback_ellipsoids a st x
    end
  end

let assign_dtrees (a : actx) (st : Astate.t) (binds : binds) (x : var)
    (rhs : expr) : Astate.t =
  if not a.cfg.Config.use_decision_trees then st
  else begin
    let packs = dt_packs_of a x in
    if packs = [] then st
    else begin
      let dts = ref st.Astate.rel.Relstate.dts in
      List.iter
        (fun (dp : Packing.dt_pack) ->
          match Ptmap.find_opt dp.dp_id !dts with
          | None -> ()
          | Some d ->
              let d' =
                if Array.exists (Var.equal x) dp.dp_bools then
                  (* boolean assignment: split each leaf on the truth of
                     the rhs *)
                  D.Decision_tree.assign_bool_split d x (fun path leaf ->
                      match leaf with
                      | None -> (None, None)
                      | Some m ->
                          let lt =
                            refine_leaf a st binds dp path rhs true m
                          in
                          let lf =
                            refine_leaf a st binds dp path rhs false m
                          in
                          (lt, lf))
                else
                  D.Decision_tree.assign_num d x (fun path leaf ->
                      match leaf with
                      | None -> D.Itv.Bot
                      | Some m -> eval_in_leaf a st binds dp path m rhs)
              in
              dts := Ptmap.add dp.dp_id d' !dts)
        packs;
      let st =
        { st with Astate.rel = { st.Astate.rel with Relstate.dts = !dts } }
      in
      writeback_dtrees a st x
    end
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
      let new_av_for (id : int) : Avalue.t =
        let generic () = Avalue.of_itv ~use_clocked ~clock rhs_itv in
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
                  let ycell = var_cell a y in
                  match Env.find st.Astate.env ycell with
                  | Some av
                    when (not y.v_volatile) && ycell = id
                         && (not (itf_tracked_var a y))
                         && same_kind (Avalue.itv av) rhs.ety ->
                      (* self-update x := x + c *)
                      let k =
                        match rhs.ety with
                        | F.Ctypes.Tint _ ->
                            if Float.is_integer c then
                              D.Itv.int_const (int_of_float c)
                            else D.Itv.int_range
                                   (int_of_float (Float.floor c))
                                   (int_of_float (Float.ceil c))
                        | F.Ctypes.Tfloat _ -> D.Itv.float_const c
                      in
                      let shifted = Avalue.add_const k av in
                      let meet_v =
                        D.Itv.meet (Avalue.itv shifted) rhs_itv
                      in
                      if D.Itv.is_bot meet_v then generic ()
                      else Avalue.with_itv shifted meet_v
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
            let nv = new_av_for id in
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
                itf_record it (c.Cell.root.v_id, c.Cell.path) rhs_itv)
            cells);
      (* relational updates only for exact scalar-variable assignments *)
      match lv.ldesc with
      | Lvar x when exact && F.Ctypes.is_scalar x.v_ty ->
          let st = assign_octagons a st x rhs rhs_itv in
          let st = assign_ellipsoids a st x rhs in
          assign_dtrees a st binds x rhs
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
              let id = Cell.intern a.intern c in
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
          let id = Cell.intern a.intern c in
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

(* ------------------------------------------------------------------ *)
(* Frozen cell numbering                                                *)
(* ------------------------------------------------------------------ *)

(** Intern every cell the analysis could ever touch, in deterministic
    program order, so the numbering does not depend on the order the
    iterator first reaches cells.  Summary keys rely on it (cold and
    warm runs must agree), and so do multi-task runs, whose per-task
    contexts — built in forked workers or in-process — are merged by
    cell id. *)
let prefill_cells (a : actx) : unit =
  let intern_var (v : var) =
    List.iter
      (fun c -> ignore (Cell.intern a.intern c))
      (Cell.cells_of_var ~structs:a.prog.p_structs
         ~expand_array_max:a.cfg.Config.expand_array_max v)
  in
  List.iter (fun (v, _) -> intern_var v) a.prog.p_globals;
  List.iter
    (fun ((_, fd) : string * fundef) ->
      List.iter
        (function Pval v -> intern_var v | Pref _ -> ())
        fd.fd_params;
      iter_stmts
        (fun s ->
          match s.sdesc with
          | Slocal (v, _) -> intern_var v
          | Scall (Some v, _, _) -> intern_var v
          | _ -> ())
        fd.fd_body)
    a.prog.p_funs

(* ------------------------------------------------------------------ *)
(* Incremental-analysis support                                         *)
(* ------------------------------------------------------------------ *)

(** Snapshot of the context's mutable bookkeeping, taken by the summary
    cache at the entry of a memoized call so that the call's exact
    contribution — alarms, loop invariants, useful octagon packs, join
    count — can be extracted afterwards and replayed verbatim on a cache
    hit. *)
type capture = {
  cap_alarms : Alarm.capture;
  cap_invariants : (int, Astate.t) Hashtbl.t;  (** copy at entry *)
  cap_oct_useful : (int, unit) Hashtbl.t;      (** copy at entry *)
  cap_joins : int;
  cap_itf : (itf_key, D.Itv.t) Hashtbl.t option;
      (** copy of the interference guarantee collector at entry (shared
          cells are few, so the copy is cheap); [None] outside
          multi-task runs *)
}

let capture_begin (a : actx) : capture =
  {
    cap_alarms = Alarm.capture a.alarms;
    cap_invariants = Hashtbl.copy a.invariants;
    cap_oct_useful = Hashtbl.copy a.oct_useful;
    cap_joins = a.join_count;
    cap_itf =
      Option.map
        (fun it -> Hashtbl.copy it.itf_writes)
        a.session.ses_itf;
  }

(** Close a capture section: restore the alarm collector (absorbing the
    captured alarms, so the surrounding analysis is unaffected) and diff
    the invariant/pack tables against the entry snapshot.  The diff is
    by physical equality: an entry is part of the delta iff the call
    (re)wrote it, which replay reproduces with [Hashtbl.replace] in the
    sequential order. *)
let capture_end (a : actx) (c : capture) : capture_delta =
  let alarms = Alarm.release a.alarms c.cap_alarms in
  let invariants =
    Hashtbl.fold
      (fun id st acc ->
        match Hashtbl.find_opt c.cap_invariants id with
        | Some old when old == st -> acc
        | _ -> (id, st) :: acc)
      a.invariants []
    |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
  in
  let oct_useful =
    Hashtbl.fold
      (fun id () acc ->
        if Hashtbl.mem c.cap_oct_useful id then acc else id :: acc)
      a.oct_useful []
    |> List.sort Int.compare
  in
  let itf_writes =
    match (a.session.ses_itf, c.cap_itf) with
    | Some it, Some snap ->
        (* keys whose joined value moved during the call, with their
           full current value: a superset of the call's own writes
           (sound — the guarantee is a per-run union anyway) and a
           subset of this run's writes (so replay never invents one) *)
        Hashtbl.fold
          (fun key v acc ->
            match Hashtbl.find_opt snap key with
            | Some old when D.Itv.equal old v -> acc
            | _ -> (key, v) :: acc)
          it.itf_writes []
        |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
    | _ -> []
  in
  {
    cd_alarms = alarms;
    cd_invariants = invariants;
    cd_oct_useful = oct_useful;
    cd_joins = a.join_count - c.cap_joins;
    cd_itf_writes = itf_writes;
  }

(** Abandon a capture section on an exceptional exit: the alarm table is
    restored (captured alarms are absorbed, not lost) and no delta is
    produced. *)
let capture_abort (a : actx) (c : capture) : unit =
  ignore (Alarm.release a.alarms c.cap_alarms)

(** Replay a captured delta against the context — the cache-hit path.
    By construction this performs exactly the bookkeeping updates the
    skipped re-analysis would have performed. *)
let capture_replay (a : actx) (d : capture_delta) : unit =
  Alarm.absorb a.alarms d.cd_alarms;
  List.iter
    (fun (id, st) -> Hashtbl.replace a.invariants id st)
    d.cd_invariants;
  List.iter (fun id -> Hashtbl.replace a.oct_useful id ()) d.cd_oct_useful;
  a.join_count <- a.join_count + d.cd_joins;
  match a.session.ses_itf with
  | None -> ()
  | Some it ->
      List.iter (fun (key, v) -> itf_record it key v) d.cd_itf_writes
