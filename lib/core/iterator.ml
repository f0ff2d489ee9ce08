(** The iterator (Sect. 5.3–5.5): abstract execution by induction on the
    abstract syntax, with

    - iteration mode (invariant generation, no warnings) and checking
      mode (one extra pass over loop bodies collecting potential errors),
    - least-fixpoint approximation with widening (thresholds,
      Sect. 7.1.2; delayed with fairness, Sect. 7.1.3; floating
      perturbation, Sect. 7.1.4) and narrowing,
    - semantic loop unrolling (Sect. 7.1.1),
    - trace partitioning in selected functions (Sect. 7.1.5),
    - context-sensitive polyvariant analysis of function calls,
      semantically equivalent to inlining (Sect. 5.4). *)

module F = Astree_frontend
module D = Astree_domains
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace
open F.Tast

exception Analysis_error of string

(* Registry entries owned by the iterator (created once at module init;
   bumping one is a single field increment). *)
let c_calls_inlined = Metrics.counter "iter.calls_inlined"
let c_loops = Metrics.counter "iter.loops"
let c_body_passes = Metrics.counter "iter.body_passes"
let c_passes_reused = Metrics.counter "iter.passes_reused"
let h_loop_iters = Metrics.histogram "loop.iters"

(* Same entries as the ones bumped inside Itv.widen and by a slot
   replay in [Memo]: read around a loop's fixpoint to attribute
   threshold catches and replayed calls to that loop head. *)
let c_threshold_hits = Metrics.counter "widen.threshold_hits"
let c_calls_replayed = Metrics.counter "iter.calls_replayed"

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

let no_flow =
  {
    o_norm = [];
    o_brk = Astate.bottom;
    o_cont = Astate.bottom;
    o_ret = Astate.bottom;
    o_retv = D.Itv.Bot;
  }

let join_itv a b =
  if D.Itv.is_bot a then b else if D.Itv.is_bot b then a else D.Itv.join a b

let join_states (sts : Astate.t list) : Astate.t =
  List.fold_left Astate.join Astate.bottom sts

let live (sts : Astate.t list) : Astate.t list =
  List.filter (fun s -> not (Astate.is_bot s)) sts

(* Merge excess partitions (safety bound of Sect. 7.1.5's cost remark). *)
let cap_partitions (a : Transfer.actx) (sts : Astate.t list) : Astate.t list =
  let sts = live sts in
  let maxp = a.Transfer.cfg.Config.max_partitions in
  if List.length sts <= maxp then sts
  else
    let rec split n acc = function
      | [] -> (List.rev acc, [])
      | l when n = 0 -> (List.rev acc, l)
      | x :: rest -> split (n - 1) (x :: acc) rest
    in
    let keep, over = split (maxp - 1) [] sts in
    keep @ [ join_states over ]

(* ------------------------------------------------------------------ *)
(* Statement tick                                                       *)
(* ------------------------------------------------------------------ *)

(* The resource governor (Astree_robust.Budget) needs a periodic check
   point inside the fixpoint engine without the core depending on it, so
   — like the call memo's keyed tier — it installs a session hook.  The
   hook is only consulted every 256 abstract statements: the common path
   is one increment, one land and one branch. *)

let tick (a : Transfer.actx) =
  let s = a.Transfer.session in
  s.Transfer.ses_ticks <- s.Transfer.ses_ticks + 1;
  if s.Transfer.ses_ticks land 0xFF = 0 then
    match s.Transfer.ses_tick_hook with None -> () | Some h -> h ()

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

(* One loop-body pass as [exec_while] keeps it for reuse: its physical
   input, the state after the body (normal and [continue] flows joined,
   so [o_norm]/[o_cont] are not kept), the flows that leave the loop,
   and, for a pass run in checking mode inside an alarm capture, the
   alarms it raised, set aside. *)
type pass = {
  p_in : Astate.t;
  p_after : Astate.t;
  p_brk : Astate.t;
  p_ret : Astate.t;
  p_retv : D.Itv.t;
  p_alarms : Alarm.t list option;
}

let c_widen = Metrics.counter "widen.total"
let t_widen = Metrics.timer "widen.total.time"

(* Metered widening for the fixpoint loop below: one probe around the
   whole [Astate.widen] (env + all relational packs) so --profile can
   attribute iteration cost to extrapolation separately from the
   per-domain octagon widening probe.  [lead] is false on the helper of
   a split loop, which leaves the count to the parent. *)
let widen_state ~lead ~thresholds ~max_clock (inv : Astate.t)
    (next : Astate.t) : Astate.t =
  if lead then Metrics.incr c_widen;
  let t0 = Metrics.start () in
  let r = Astate.widen ~thresholds ~max_clock inv next in
  Metrics.stop t_widen t0;
  r

(* ------------------------------------------------------------------ *)
(* Split main loop (DESIGN.md §7)                                      *)
(* ------------------------------------------------------------------ *)

(* At [-j 2] and more, a main loop whose body calls independent
   functions runs as two processes, each with one contiguous run of the
   calls and the part of the state their frames hold.  Every lattice
   operation and predicate of the fixpoint works cell by cell or pack by
   pack, and only the clock tick writes the clock, the same on both
   sides; so each half computes exactly its part of the one-process
   iterates as long as both take the same decisions.  They exchange
   their parts of each predicate ([Transfer.vote]) and combine them. *)

(* One half of a split loop: its peer, whether it is the helper, the
   counts the loop's trace events sum over both halves, and this half's
   loop invariant once the fixpoint has it. *)
type lockstep = {
  ls_peer : Transfer.peer;
  ls_helper : bool;
  ls_replayed0 : int;  (* this half's counters at the split *)
  ls_thr_hits0 : int;
  mutable ls_peer_replayed : int;  (* the other half's, at its last vote *)
  mutable ls_peer_thr_hits : int;
  mutable ls_inv : Astate.t;
}

let vote : Transfer.vote =
  {
    vt_subset = true;
    vt_equal = true;
    vt_unstable = 0;
    vt_reuse = true;
    vt_bot = false;
    vt_replayed = 0;
    vt_thr_hits = 0;
  }

(* This half's vote combined with the other half's; a loop run alone
   keeps its own.  Either half at bottom ends the split
   ([Transfer.Half_bottom]). *)
let agree (ls : lockstep option) (v : Transfer.vote) : Transfer.vote =
  match ls with
  | None -> v
  | Some ls ->
      let v =
        {
          v with
          vt_replayed = Metrics.value c_calls_replayed - ls.ls_replayed0;
          vt_thr_hits = Metrics.value c_threshold_hits - ls.ls_thr_hits0;
        }
      in
      let w = ls.ls_peer.Transfer.pe_exchange v in
      ls.ls_peer_replayed <- w.vt_replayed;
      ls.ls_peer_thr_hits <- w.vt_thr_hits;
      if v.vt_bot || w.vt_bot then raise Transfer.Half_bottom;
      {
        v with
        vt_subset = v.vt_subset && w.vt_subset;
        vt_equal = v.vt_equal && w.vt_equal;
        vt_unstable =
          (if v.vt_unstable > max_int - w.vt_unstable then max_int
           else v.vt_unstable + w.vt_unstable);
        vt_reuse = v.vt_reuse && w.vt_reuse;
      }

(* The calls replayed and the threshold hits of both halves: this
   half's, plus the other half's as of its last vote. *)
let replayed (ls : lockstep option) : int =
  Metrics.value c_calls_replayed
  + match ls with Some ls -> ls.ls_peer_replayed | None -> 0

let thr_hits (ls : lockstep option) : int =
  Metrics.value c_threshold_hits
  + match ls with Some ls -> ls.ls_peer_thr_hits | None -> 0

(* The calls of a body that is argument-less calls of known functions
   and then the clock tick, with the tick. *)
let calls_then_wait (a : Transfer.actx) (body : block) : (stmt list * stmt) option =
  let rec go acc = function
    | [ ({ sdesc = Swait; _ } as w) ] -> Some (List.rev acc, w)
    | ({ sdesc = Scall (None, f, []); _ } as s) :: rest
      when Hashtbl.mem a.Transfer.funs f ->
        go (s :: acc) rest
    | _ -> None
  in
  go [] body

let callee (s : stmt) = match s.sdesc with Scall (_, f, _) -> f | _ -> ""

(* The cut after the first [k] calls, closest to even by inlined size,
   such that the frames before it and those after it share no cell;
   [None] when there is none, or when a frame holds a loop (its
   invariant would be a whole state, which no half has). *)
let cut (a : Transfer.actx) (calls : stmt list) (frames : Frame.t list) :
    int option =
  if List.exists Frame.has_loops frames then None
  else begin
    let n = List.length frames in
    let first = Hashtbl.create 4096 and last = Hashtbl.create 4096 in
    List.iteri
      (fun i fr ->
        Frame.iter_cells
          (fun c ->
            if not (Hashtbl.mem first c) then Hashtbl.add first c i;
            Hashtbl.replace last c i)
          fr)
      frames;
    (* a cell of calls [i] and [j > i] rules out the cuts [i+1 .. j] *)
    let crossed = Array.make (n + 1) 0 in
    Hashtbl.iter
      (fun c i ->
        let j = Hashtbl.find last c in
        if i < j then begin
          crossed.(i + 1) <- crossed.(i + 1) + 1;
          crossed.(j + 1) <- crossed.(j + 1) - 1
        end)
      first;
    let sizes = Lazy.force a.Transfer.inlined in
    let w =
      Array.of_list
        (List.map
           (fun s -> Option.value ~default:1 (Hashtbl.find_opt sizes (callee s)))
           calls)
    in
    let total = Array.fold_left ( + ) 0 w in
    let best = ref None and open_ = ref 0 and before = ref 0 in
    for k = 1 to n - 1 do
      open_ := !open_ + crossed.(k);
      before := !before + w.(k - 1);
      let gap = abs ((2 * !before) - total) in
      match !best with
      | Some (_, g) when g <= gap -> ()
      | _ -> if !open_ = 0 then best := Some (k, gap)
    done;
    Option.map fst !best
  end

(* The split of the loop [c, body] with entry state [entry] when it has
   one (DESIGN.md §7): at [cfg.jobs >= 2], with the split hook (never
   given to a per-task run) and no keyed tier installed, for a loop
   directly in the entry function whose guard is a non-zero constant
   and whose body is argument-less calls, then the clock tick.  The
   hook, each half's body and the second half's frames. *)
let split_of (a : Transfer.actx) ~(stack : string list) (entry : Astate.t)
    (c : expr) (body : block) :
    (Transfer.split * block * block * Frame.t list) option =
  let s = a.Transfer.session in
  match (s.Transfer.ses_split, c.edesc) with
  | Some sp, Eint n
    when n <> 0
         && a.Transfer.cfg.Config.jobs >= 2
         && s.Transfer.ses_keyed = None
         && stack = [ a.Transfer.prog.p_main ]
         && not (Astate.is_bot entry) -> (
      match calls_then_wait a body with
      | None -> None
      | Some (calls, wait) ->
          let frames =
            List.map
              (fun s -> Frame.of_call a.Transfer.frames ~fname:(callee s) VarMap.empty)
              calls
          in
          Option.map
            (fun k ->
              ( sp,
                List.filteri (fun i _ -> i < k) calls @ [ wait ],
                List.filteri (fun i _ -> i >= k) calls @ [ wait ],
                List.filteri (fun i _ -> i >= k) frames ))
            (cut a calls frames))
  | _ -> None

let rec exec_stmt (a : Transfer.actx) ~(part : bool) ~(stack : string list)
    ~(sites : Memo.sites) (binds : Transfer.binds) (sts : Astate.t list)
    (s : stmt) : outcome =
  tick a;
  (* keep the collector's inlining context in sync with the iterator's
     stack, so every alarm reported below picks up its call chain (one
     field write; the lists are shared, not copied) *)
  a.Transfer.alarms.Alarm.chain <- stack;
  match live sts with
  | [] -> no_flow
  | sts -> (
      match s.sdesc with
      | Sskip -> { no_flow with o_norm = sts }
      | Sassign (lv, e) ->
          {
            no_flow with
            o_norm = List.map (fun st -> Transfer.assign a st binds lv e) sts;
          }
      | Slocal (v, init) ->
          {
            no_flow with
            o_norm =
              List.map (fun st -> Transfer.local_decl a st binds v init) sts;
          }
      | Swait ->
          { no_flow with o_norm = List.map (fun st -> Transfer.wait a st) sts }
      | Sassume e ->
          {
            no_flow with
            o_norm = List.map (fun st -> Transfer.guard a st binds e true) sts;
          }
      | Sassert e ->
          let check st =
            let bad = Transfer.guard a st binds e false in
            if not (Astate.is_bot bad) then begin
              let err = ref false in
              let i = Transfer.eval a st binds err e in
              Alarm.report
                ~domain:(Transfer.value_domain a st binds e)
                ~operands:[ (Fmt.str "%a" F.Pp.pp_expr e, Fmt.str "%a" D.Itv.pp i) ]
                a.Transfer.alarms Alarm.Assert_failure s.sloc
                "assertion may not hold"
            end;
            Transfer.guard a st binds e true
          in
          { no_flow with o_norm = List.map check sts }
      | Sbreak -> { no_flow with o_brk = join_states sts }
      | Scontinue -> { no_flow with o_cont = join_states sts }
      | Sreturn None -> { no_flow with o_ret = join_states sts }
      | Sreturn (Some e) ->
          let retv =
            List.fold_left
              (fun acc st ->
                let err = ref false in
                join_itv acc (Transfer.eval a st binds err e))
              D.Itv.Bot sts
          in
          { no_flow with o_ret = join_states sts; o_retv = retv }
      | Sif (c, tb, fb) ->
          (* both branches are analyzed independently from their guarded
             entry states and merged by join *)
          let run_both st =
            let st_t = Transfer.guard a st binds c true in
            let st_f = Transfer.guard a st binds c false in
            let ot = exec_block a ~part ~stack ~sites binds [ st_t ] tb in
            let of_ = exec_block a ~part ~stack ~sites binds [ st_f ] fb in
            (ot, of_)
          in
          let pairs = List.map run_both sts in
          let outs =
            List.map
              (fun (ot, of_) ->
                {
                  o_norm =
                    (if part then cap_partitions a (ot.o_norm @ of_.o_norm)
                     else [ Astate.join (join_states ot.o_norm)
                              (join_states of_.o_norm) ]);
                  o_brk = Astate.join ot.o_brk of_.o_brk;
                  o_cont = Astate.join ot.o_cont of_.o_cont;
                  o_ret = Astate.join ot.o_ret of_.o_ret;
                  o_retv = join_itv ot.o_retv of_.o_retv;
                })
              pairs
          in
          List.fold_left
            (fun acc o ->
              {
                o_norm = acc.o_norm @ o.o_norm;
                o_brk = Astate.join acc.o_brk o.o_brk;
                o_cont = Astate.join acc.o_cont o.o_cont;
                o_ret = Astate.join acc.o_ret o.o_ret;
                o_retv = join_itv acc.o_retv o.o_retv;
              })
            no_flow outs
          |> fun o -> { o with o_norm = cap_partitions a o.o_norm }
      | Swhile (li, c, body) ->
          (* partitions are merged at loop heads *)
          let st = join_states sts in
          exec_while a ~stack binds st (li, c, body)
      | Scall (dst, fname, args) ->
          exec_call a ~stack ~sites ~site:s binds sts dst fname args)

and exec_block (a : Transfer.actx) ~(part : bool) ~(stack : string list)
    ~(sites : Memo.sites) (binds : Transfer.binds) (sts : Astate.t list)
    (b : block) : outcome =
  List.fold_left
    (fun acc stmt ->
      match live acc.o_norm with
      | [] -> acc
      | sts ->
          let o = exec_stmt a ~part ~stack ~sites binds sts stmt in
          {
            o_norm = o.o_norm;
            o_brk = Astate.join acc.o_brk o.o_brk;
            o_cont = Astate.join acc.o_cont o.o_cont;
            o_ret = Astate.join acc.o_ret o.o_ret;
            o_retv = join_itv acc.o_retv o.o_retv;
          })
    { no_flow with o_norm = sts }
    b

(* ------------------------------------------------------------------ *)
(* Loops (Sect. 5.4, 5.5, 7.1)                                         *)
(* ------------------------------------------------------------------ *)

and exec_while (a : Transfer.actx) ~(stack : string list)
    (binds : Transfer.binds) (entry : Astate.t)
    ((li, c, body) : loop_info * expr * block) : outcome =
  match split_of a ~stack entry c body with
  | None -> loop_fixpoint a ~stack binds entry (li, c, body)
  | Some split -> exec_split a ~stack binds entry (li, c, body) split

(* The loop as two halves in lock-step (DESIGN.md §7), in one section
   on each side: the helper runs the second half from its part of
   [entry] and ships its half of the invariant and its section's delta;
   the parent runs the first half from the rest, unites both halves of
   the invariant and absorbs the delta.  When the helper is lost or a
   half reaches bottom, the parent's section is rolled back and the
   loop runs again alone. *)
and exec_split (a : Transfer.actx) ~(stack : string list)
    (binds : Transfer.binds) (entry : Astate.t)
    ((li, c, body) : loop_info * expr * block)
    ((sp, first, second, frames) : Transfer.split * block * block * Frame.t list)
    : outcome =
  let section = Transfer.open_section a in
  let run peer ~helper body =
    let ls =
      {
        ls_peer = peer;
        ls_helper = helper;
        ls_replayed0 = Metrics.value c_calls_replayed;
        ls_thr_hits0 = Metrics.value c_threshold_hits;
        ls_peer_replayed = 0;
        ls_peer_thr_hits = 0;
        ls_inv = Astate.bottom;
      }
    in
    let o =
      loop_fixpoint ~ls a ~stack binds
        (Frame.part frames ~inside:helper entry)
        (li, c, body)
    in
    (o, ls.ls_inv)
  in
  let helper peer =
    let _, inv = run peer ~helper:true second in
    (inv, Transfer.close a section)
  in
  match
    sp.Transfer.sp_run ~helper (fun peer ->
        let o = run peer ~helper:false first in
        (o, peer.Transfer.pe_finish ()))
  with
  | exception e ->
      ignore (Transfer.close a section);
      raise e
  | Some ((o, inv), (h_inv, h)) ->
      ignore (Transfer.close a section);
      Transfer.absorb a h;
      Transfer.set_invariant a li.loop_id (Astate.union inv h_inv);
      (* the helper's half of the outcome is bottom, as is the parent's *)
      o
  | None ->
      Transfer.rollback a section;
      loop_fixpoint a ~stack binds entry (li, c, body)

(* The loop's fixpoint, alone or as one half of a split loop [ls]: the
   helper's half takes every decision with the parent's, but leaves the
   counts of what both halves do once per state — passes, loop-head
   joins and widenings, the loop itself — and the loop's trace events to
   the parent. *)
and loop_fixpoint ?(ls : lockstep option) (a : Transfer.actx)
    ~(stack : string list) (binds : Transfer.binds) (entry : Astate.t)
    ((li, c, body) : loop_info * expr * block) : outcome =
  (* the call sites of this loop's body, for its lifetime (differential
     iteration, [Memo.call]) *)
  let sites = Memo.loop_sites () in
  let cfg = a.Transfer.cfg in
  let thresholds = cfg.Config.widening_thresholds in
  let max_clock = cfg.Config.max_clock in
  let alarms = a.Transfer.alarms in
  let lead = match ls with Some { ls_helper = true; _ } -> false | _ -> true in
  (* a loop-head join, which the helper leaves uncounted *)
  let join x y = Astate.join ~count:lead x y in
  (* Pass reuse (DESIGN.md §6): the analysis of the body is a function
     of its input state, so a pass from physically the same input as
     the latest one is that pass again and is reused, not recomputed.
     Only the latest pass is kept, and it is released before the next
     one is computed.  [~aside:true] marks a narrowing pass: in checking
     mode its alarms are captured and set aside, and they count only
     when the checking pass reuses it.  A checking pass reuses only a
     pass whose alarms were set aside. *)
  let last = ref None in
  let body_pass ?(aside = false) st =
    let checking = alarms.Alarm.enabled in
    let reuse =
      match !last with
      | Some p
        when p.p_in == st && (aside || (not checking) || p.p_alarms <> None) ->
          Some p
      | _ -> None
    in
    match reuse with
    | Some p when (agree ls { vote with vt_reuse = true }).vt_reuse ->
        if lead then Metrics.incr c_passes_reused;
        if checking && not aside then
          Option.iter (Alarm.absorb alarms) p.p_alarms;
        p
    | _ ->
        if Option.is_none reuse then ignore (agree ls { vote with vt_reuse = false });
        last := None;
        if lead then Metrics.incr c_body_passes;
        let run () =
          let body_in = Transfer.guard a st binds c true in
          exec_block a ~part:false ~stack ~sites binds [ body_in ] body
        in
        let o, set_aside =
          if checking && aside then begin
            let saved = Alarm.capture alarms in
            match run () with
            | o -> (o, Some (Alarm.drop alarms saved))
            | exception e ->
                ignore (Alarm.drop alarms saved);
                raise e
          end
          else (run (), None)
        in
        let p =
          {
            p_in = st;
            p_after = Astate.join (join_states o.o_norm) o.o_cont;
            p_brk = o.o_brk;
            p_ret = o.o_ret;
            p_retv = o.o_retv;
            p_alarms = set_aside;
          }
        in
        ignore (agree ls { vote with vt_bot = Astate.is_bot p.p_after });
        last := Some p;
        p
  in
  let subset next inv =
    (agree ls { vote with vt_subset = Astate.subset next inv }).vt_subset
  in
  (* ---- semantic unrolling (Sect. 7.1.1) ---- *)
  let unroll = Config.unroll_for cfg li.loop_id in
  let rec do_unroll k st exits rets retv =
    if k = 0 || Astate.is_bot st then (st, exits, rets, retv)
    else begin
      let p = body_pass st in
      let exits =
        Astate.join exits
          (Astate.join (Transfer.guard a st binds c false) p.p_brk)
      in
      do_unroll (k - 1) p.p_after exits (Astate.join rets p.p_ret)
        (join_itv retv p.p_retv)
    end
  in
  let st0, exits0, rets0, retv0 =
    do_unroll unroll entry Astate.bottom Astate.bottom D.Itv.Bot
  in
  if Astate.is_bot st0 then
    { no_flow with o_norm = [ exits0 ]; o_ret = rets0; o_retv = retv0 }
  else begin
    (* ---- fixpoint in iteration mode (Sect. 5.5) ---- *)
    if lead then Metrics.incr c_loops;
    let n_widens = ref 0 and n_narrows = ref 0 and n_iters = ref 0 in
    let thr_hits0 = thr_hits ls in
    let replayed0 = replayed ls in
    let saved_mode = alarms.Alarm.enabled in
    alarms.Alarm.enabled <- false;
    let count_unstable (old_ : Astate.t) (next : Astate.t) : int =
      if Astate.is_bot next then 0
      else if Astate.is_bot old_ then max_int
      else begin
        let n = ref 0 in
        Env.iter
          (fun id nv ->
            match Env.find old_.Astate.env id with
            | Some ov -> if not (Avalue.subset nv ov) then incr n
            | None -> incr n)
          next.Astate.env;
        !n
      end
    in
    let eps = cfg.Config.float_iteration_epsilon in
    (* one [loop.iterate] event per iterate under --trace: how many cells
       are still climbing *)
    let trace_iterate i unstable replayed_i =
      if lead && !Trace.enabled then
        Trace.emit "loop.iterate"
          ~args:
            [
              ("loop", Trace.I li.loop_id);
              ("iter", Trace.I i);
              ("unstable", Trace.I unstable);
              ("replayed", Trace.I (replayed ls - replayed_i));
            ]
    in
    let rec iterate i fairness prev_unstable (inv : Astate.t) : Astate.t =
      n_iters := i;
      let replayed_i = replayed ls in
      let next = join st0 (body_pass inv).p_after in
      if subset next inv then begin
        trace_iterate i 0 replayed_i;
        inv
      end
      else begin
        let unstable =
          (agree ls { vote with vt_unstable = count_unstable inv next })
            .vt_unstable
        in
        trace_iterate i unstable replayed_i;
        (* floating iteration perturbation (Sect. 7.1.4): when the iterate
           is almost stable (abstract rounding noise only), try the
           epsilon-enlarged candidate F-hat before widening any further;
           the stability check itself always uses the unperturbed F *)
        let try_hat () =
          if unstable > 4 || eps <= 0.0 then None
          else begin
            let inv_hat = Astate.perturb eps (join inv next) in
            let after_hat = (body_pass inv_hat).p_after in
            if subset (join st0 after_hat) inv_hat then Some inv_hat
            else None
          end
        in
        match try_hat () with
        | Some stable -> stable
        | None ->
            if i > 500 then begin
              (* safety net: force the classical widening straight to
                 infinity so the fixpoint computation always terminates *)
              incr n_widens;
              iterate (i + 1) 0 unstable
                (widen_state ~lead ~thresholds:D.Thresholds.none ~max_clock
                   inv next)
            end
            else if i < cfg.Config.delay_widening then
              iterate (i + 1) fairness unstable (join inv next)
            else if
              (unstable < prev_unstable || unstable = 0) && fairness > 0
            then
              (* delayed widening: some variable just became stable
                 (Sect. 7.1.3), keep joining under the fairness budget.
                 [unstable = 0] means only relational constraints are
                 still settling (they converge a couple of iterations
                 after the cells do): give them the same grace. *)
              iterate (i + 1) (fairness - 1) unstable (join inv next)
            else begin
              incr n_widens;
              iterate (i + 1) fairness unstable
                (widen_state ~lead ~thresholds ~max_clock inv next)
            end
      end
    in
    let inv = iterate 0 cfg.Config.widening_fairness max_int st0 in
    (* ---- narrowing iterations (Sect. 5.5) ----
       decreasing iterations from the post-fixpoint: when F(I) <= I, the
       iterate F(I) is itself an invariant provided it remains a
       post-fixpoint, which is re-verified before adopting it.  This
       recovers from widening overshoots (finite thresholds above the
       real bound), which the classical infinite-bounds-only narrowing
       cannot.  The passes run in the loop's own mode, alarms set aside:
       the last one doubles as the checking pass below. *)
    let rec narrow k inv =
      if k = 0 then inv
      else begin
        let next = join st0 (body_pass ~aside:true inv).p_after in
        let sub = Astate.subset next inv in
        let v =
          agree ls
            { vote with vt_subset = sub; vt_equal = sub && Astate.equal next inv }
        in
        if v.vt_subset && not v.vt_equal then begin
          let check = (body_pass ~aside:true next).p_after in
          if subset (join st0 check) next then begin
            incr n_narrows;
            narrow (k - 1) next
          end
          else
            (* fall back to the classical narrowing on infinite bounds *)
            let narrowed = Astate.narrow inv next in
            let check = (body_pass ~aside:true narrowed).p_after in
            if subset (join st0 check) narrowed then begin
              incr n_narrows;
              narrowed
            end
            else inv
        end
        else inv
      end
    in
    alarms.Alarm.enabled <- saved_mode;
    let inv = narrow cfg.Config.narrowing_iterations inv in
    if lead then begin
      Metrics.observe h_loop_iters !n_iters;
      if !Trace.enabled then
        Trace.emit "loop.fixpoint"
          ~loc:(Fmt.str "%a" F.Loc.pp c.eloc)
          ~args:
            [
              ("loop", Trace.I li.loop_id);
              ("iters", Trace.I !n_iters);
              ("widens", Trace.I !n_widens);
              ("narrows", Trace.I !n_narrows);
              ("stabilized_at", Trace.I !n_iters);
              ( "threshold_hits",
                Trace.I (thr_hits ls - thr_hits0) );
              ("replayed", Trace.I (replayed ls - replayed0));
            ]
    end;
    (* save the loop invariant for examination (Sect. 5.3); a split
       loop's halves are united by [exec_split] *)
    (match ls with
    | None -> Transfer.set_invariant a li.loop_id inv
    | Some ls -> ls.ls_inv <- inv);
    (* ---- extra pass, in checking mode if enabled (Sect. 5.4); the
       narrowing pass on [inv], when it is the latest ---- *)
    let p = body_pass inv in
    let exit_ = Transfer.guard a inv binds c false in
    {
      no_flow with
      o_norm = [ Astate.join exits0 (Astate.join exit_ p.p_brk) ];
      o_ret = Astate.join rets0 p.p_ret;
      o_retv = join_itv retv0 p.p_retv;
    }
  end

(* ------------------------------------------------------------------ *)
(* Function calls (Sect. 5.4)                                          *)
(* ------------------------------------------------------------------ *)

and exec_call (a : Transfer.actx) ~(stack : string list)
    ~(sites : Memo.sites) ~(site : stmt)
    (binds : Transfer.binds) (sts : Astate.t list) (dst : var option)
    (fname : string) (args : arg list) : outcome =
  match Hashtbl.find_opt a.Transfer.funs fname with
  | None ->
      raise (Analysis_error (Fmt.str "call to unknown function %s" fname))
  | Some fd ->
      if List.mem fname stack then
        raise
          (Analysis_error
             (Fmt.str "recursion detected through %s (not in the subset)"
                fname));
      let run st =
        exec_call_one a ~stack ~sites ~site binds st dst fname fd args
      in
      { no_flow with o_norm = List.map run (live sts) }

(** Polyvariant analysis of one call from one entry state: bind the
    parameters, analyze the callee body (with trace partitioning if the
    function is selected), merge the traces at the return point and
    write the return value into [dst]. *)
and exec_call_one (a : Transfer.actx) ~(stack : string list)
    ~(sites : Memo.sites) ~(site : stmt)
    (binds : Transfer.binds) (st : Astate.t) (dst : var option)
    (fname : string) (fd : fundef) (args : arg list) : Astate.t =
  Metrics.incr c_calls_inlined;
  if !Trace.enabled then
    Trace.emit "call.inline"
      ~args:
        [ ("fn", Trace.S fname); ("depth", Trace.I (List.length stack)) ];
  let caller = stack in
  let stack = fname :: stack in
  let partitioned =
    List.mem fname a.Transfer.cfg.Config.partitioned_functions
  in
  (* bind parameters *)
  let st, callee_binds =
    List.fold_left2
      (fun (st, cb) (p : param) (arg : arg) ->
        match (p, arg) with
        | Pval v, Aval e -> (Transfer.local_decl a st binds v (Some e), cb)
        | Pref v, Aref actual ->
            let resolved = Transfer.resolve_lval binds actual in
            (st, VarMap.add v resolved cb)
        | _ ->
            raise
              (Analysis_error (Fmt.str "argument mismatch calling %s" fname)))
      (st, VarMap.empty) fd.fd_params args
  in
  let exit_env, retv =
    exec_call_body a ~stack ~sites ~site ~partitioned callee_binds st fname fd
  in
  (* the callee's statements left their call chain in the collector; a
     loop guard evaluated next belongs to the caller *)
  a.Transfer.alarms.Alarm.chain <- caller;
  match (dst, retv) with
  | Some d, retv when not (D.Itv.is_bot retv) ->
      let id = Transfer.var_cell a d in
      {
        exit_env with
        Astate.env =
          Env.set exit_env.Astate.env id
            (Avalue.of_itv ~use_clocked:a.Transfer.cfg.Config.use_clocked
               ~clock:exit_env.Astate.clock retv);
      }
  | Some d, _ ->
      (* no return value reached: leave dst at its type range *)
      Transfer.local_decl a exit_env binds d None
  | None, _ -> exit_env

(** Analyze the callee body from a fully bound entry state and merge the
    traces at the return point.  This is the replayed region: the
    framed entry state, the by-reference bindings and the alarm mode
    determine the result completely (the destination write-back happens
    in the caller's scope, outside).  On a replay by the call memo
    ({!Memo.call}) the frame part of the recorded exit state is
    laid over the entry state and the recorded side effects — alarms,
    loop invariants, useful octagon packs, shared-cell writes — are replayed,
    so a replay is observationally identical to re-analysis. *)
and exec_call_body (a : Transfer.actx) ~(stack : string list)
    ~(sites : Memo.sites) ~(site : stmt) ~(partitioned : bool)
    (callee_binds : Transfer.binds) (st : Astate.t) (fname : string)
    (fd : fundef) : Astate.t * D.Itv.t =
  let compute sites =
    let o =
      exec_block a ~part:partitioned ~stack ~sites callee_binds [ st ]
        fd.fd_body
    in
    (* the traces are merged at the return point of the function
       (Sect. 7.1.5) *)
    let exit_env = Astate.join (join_states o.o_norm) o.o_ret in
    let retv =
      match fd.fd_ret with
      | F.Ctypes.Tvoid -> D.Itv.Bot
      | F.Ctypes.Tscalar sc ->
          (* falling off the end without a return gives an undefined
             value: the whole type range *)
          if Astate.is_bot (join_states o.o_norm) then o.o_retv
          else
            join_itv o.o_retv
              (Avalue.top_of_scalar a.Transfer.prog.p_target sc)
      | _ -> D.Itv.Bot
    in
    (exit_env, retv)
  in
  Memo.call a sites ~site ~fname callee_binds st compute

(* ------------------------------------------------------------------ *)
(* Whole-program analysis                                              *)
(* ------------------------------------------------------------------ *)

(** Run the abstract interpreter from the program entry point, in
    checking mode (loops internally recompute their invariants in
    iteration mode first, Sect. 5.4).  The entry point is a call of the
    memo like any other, from the initial state: with the keyed tier
    installed, an unchanged program replays its one summary. *)
let run (a : Transfer.actx) : Astate.t =
  let main = a.Transfer.prog.p_main in
  match Hashtbl.find_opt a.Transfer.funs main with
  | None -> raise (Analysis_error (Fmt.str "entry point %s not found" main))
  | Some fd ->
      let st0 = Transfer.initial_state a in
      a.Transfer.alarms.Alarm.enabled <- true;
      let compute sites =
        let o =
          exec_block a ~part:false ~stack:[ main ] ~sites VarMap.empty [ st0 ]
            fd.fd_body
        in
        (Astate.join (join_states o.o_norm) o.o_ret, D.Itv.Bot)
      in
      (* outside any loop: the site only names the call *)
      let site = { sdesc = Scall (None, main, []); sloc = fd.fd_loc } in
      fst (Memo.call a Memo.no_sites ~site ~fname:main VarMap.empty st0 compute)
