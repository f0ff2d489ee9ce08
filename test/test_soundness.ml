(* Whole-analyzer soundness properties: every error exhibited by a
   concrete execution must be covered by an alarm of the abstract
   analysis at the same location, and alarm-free programs never fail
   concretely.  The concrete interpreter of the frontend is the ground
   truth. *)

module C = Astree_core
module F = Astree_frontend
module G = Astree_gen

let compile src =
  let ast = F.Parser.parse_string ~file:"<t>" src in
  let p = F.Typecheck.elab_program ast in
  fst (F.Simplify.run p)

(* deterministic input oracle derived from a seed *)
let oracle_of_seed seed =
  let state = ref seed in
  fun (spec : F.Tast.input_spec) ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    let u = float_of_int !state /. float_of_int 0x3FFFFFFF in
    let v = spec.F.Tast.in_lo +. (u *. (spec.F.Tast.in_hi -. spec.F.Tast.in_lo)) in
    if F.Ctypes.is_integer spec.F.Tast.in_var.F.Tast.v_ty then Float.round v
    else v

(* Run [p] concretely under several input seeds; returns the observed
   error locations. *)
let concrete_errors ?(ticks = 300) ?(seeds = 20) (p : F.Tast.program) :
    (F.Interp.error_kind * F.Loc.t) list =
  let errs = ref [] in
  for seed = 1 to seeds do
    match F.Interp.run ~max_ticks:ticks ~input:(oracle_of_seed seed) p with
    | F.Interp.Finished -> ()
    | F.Interp.Error (k, l) -> errs := (k, l) :: !errs
  done;
  List.sort_uniq compare !errs

let alarm_covers (alarms : C.Alarm.t list) ((k, l) : F.Interp.error_kind * F.Loc.t) :
    bool =
  List.exists
    (fun (a : C.Alarm.t) ->
      F.Loc.equal a.C.Alarm.a_loc l
      &&
      match (k, a.C.Alarm.a_kind) with
      | F.Interp.Int_overflow, C.Alarm.Int_overflow
      | F.Interp.Div_by_zero, (C.Alarm.Div_by_zero | C.Alarm.Mod_by_zero)
      | F.Interp.Out_of_bounds, C.Alarm.Out_of_bounds
      | F.Interp.Float_overflow, C.Alarm.Float_overflow
      | F.Interp.Invalid_op, C.Alarm.Invalid_op
      | F.Interp.Assert_failure, C.Alarm.Assert_failure
      | F.Interp.Shift_range, C.Alarm.Shift_range ->
          true
      | _ -> false)
    alarms

(* Property 1: on buggy family members, every concrete error location is
   alarmed. *)
let prop_concrete_errors_alarmed =
  QCheck.Test.make ~name:"concrete errors are covered by alarms" ~count:15
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let g =
        G.Generator.generate
          {
            G.Generator.seed;
            target_lines = 150;
            mix = G.Shapes.all_safe_kinds;
            bug_ratio = 0.3;
            fuse = 1;
          }
      in
      let p = compile g.G.Generator.source in
      let r = C.Analysis.analyze ~cfg:C.Config.default p in
      let errors = concrete_errors p in
      List.for_all (alarm_covers r.C.Analysis.r_alarms) errors)

(* Property 2: alarm-free analyses really mean error-free executions. *)
let prop_no_alarm_no_error =
  QCheck.Test.make ~name:"0 alarms implies error-free concrete runs" ~count:10
    (QCheck.int_range 1 10_000)
    (fun seed ->
      let g =
        G.Generator.generate
          {
            G.Generator.seed;
            target_lines = 200;
            mix = G.Shapes.all_safe_kinds;
            bug_ratio = 0.0;
            fuse = 1;
          }
      in
      let p = compile g.G.Generator.source in
      let r = C.Analysis.analyze ~cfg:C.Config.default p in
      QCheck.assume (C.Analysis.n_alarms r = 0);
      concrete_errors ~ticks:200 ~seeds:10 p = [])

(* Property 3: the final invariant over-approximates every concrete
   state observed at the clock ticks (checked on global scalars). *)
let prop_invariant_covers_trajectories =
  QCheck.Test.make ~name:"loop invariant covers concrete trajectories"
    ~count:10 (QCheck.int_range 1 10_000)
    (fun seed ->
      let g =
        G.Generator.generate
          {
            G.Generator.seed;
            target_lines = 120;
            mix =
              [ G.Shapes.Filter; G.Shapes.Rate_limiter; G.Shapes.Integrator;
                G.Shapes.Lag; G.Shapes.Counter ];
            bug_ratio = 0.0;
            fuse = 1;
          }
      in
      let p = compile g.G.Generator.source in
      let r = C.Analysis.analyze ~cfg:C.Config.default p in
      let actx = r.C.Analysis.r_actx in
      (* take the outermost loop invariant *)
      let inv =
        Hashtbl.fold
          (fun id st acc ->
            match acc with
            | Some (best, _) when best <= id -> acc
            | _ -> Some (id, st))
          actx.C.Transfer.invariants None
      in
      match inv with
      | None -> true
      | Some (_, inv) ->
          let ok = ref true in
          let on_tick (st : F.Interp.state) =
            List.iter
              (fun ((v : F.Tast.var), _) ->
                if (not v.F.Tast.v_volatile) && F.Ctypes.is_scalar v.F.Tast.v_ty
                then
                  match F.Interp.read_global_scalar st v.F.Tast.v_name with
                  | Some concrete ->
                      let abstract = C.Transfer.var_itv actx inv v in
                      let inside =
                        match (concrete, abstract) with
                        | F.Interp.Vint n, Astree_domains.Itv.Int (lo, hi) ->
                            lo <= n && n <= hi
                        | F.Interp.Vfloat f, Astree_domains.Itv.Float (lo, hi)
                          ->
                            lo <= f && f <= hi
                        | _, Astree_domains.Itv.Bot -> false
                        | _ -> true
                      in
                      if not inside then ok := false
                  | None -> ())
              p.F.Tast.p_globals
          in
          (match
             F.Interp.run ~max_ticks:300 ~input:(oracle_of_seed seed) ~on_tick p
           with
          | F.Interp.Finished -> ()
          | F.Interp.Error _ -> () (* alarms cover errors; prop 1 *));
          !ok)

(* Property 4: every concrete clock at a loop head lies in that loop's
   reported clock range.  The clock widens straight to [max_clock]
   (DESIGN.md §6); the concrete run lasts the whole operating time, so it
   reaches [max_clock].  The inner loop ticks up to three times per pass
   of the main loop.  A loop's invariant holds at its head after the
   unrolled passes (Sect. 7.1.1), and the inner loop's is the one of its
   last analysis, from the main loop's invariant: it covers the inner
   head once the main loop is past its own unrolled passes. *)
let ticking_src =
  {|
volatile int n;
int k;
int main(void) {
  __astree_input_range(n, 0.0, 3.0);
  while (1) {
    int i;
    k = n;
    i = 0;
    while (i < k) {
      __astree_wait_for_clock();
      i = i + 1;
    }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let prop_clock_covered =
  QCheck.Test.make ~name:"loop-head clocks lie in the clock range" ~count:10
    QCheck.(pair (int_range 1 10_000) (int_range 5 60))
    (fun (seed, max_clock) ->
      let p = compile ticking_src in
      let cfg = { C.Config.default with C.Config.max_clock } in
      let r = C.Analysis.analyze ~cfg p in
      let invs = r.C.Analysis.r_actx.C.Transfer.invariants in
      let ok = ref true and heads = ref 0 in
      (* the first loop visited is the main loop *)
      let main = ref None and main_passes = ref 0 in
      let on_loop id passes st =
        if !main = None then main := Some id;
        if !main = Some id then main_passes := passes;
        let unrolled l = C.Config.unroll_for cfg l in
        if
          passes >= unrolled id
          && !main_passes >= unrolled (Option.get !main)
        then begin
          incr heads;
          match Hashtbl.find_opt invs id with
          | Some inv -> (
              let c = F.Interp.clock st in
              match inv.C.Astate.clock with
              | Astree_domains.Itv.Int (lo, hi) ->
                  if c < lo || c > hi then ok := false
              | _ -> ok := false)
          | None -> ok := false
        end
      in
      ignore
        (F.Interp.run ~max_ticks:(max_clock + 1) ~input:(oracle_of_seed seed)
           ~on_loop p);
      !ok && !heads > 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_concrete_errors_alarmed;
      prop_no_alarm_no_error;
      prop_invariant_covers_trajectories;
      prop_clock_covered;
    ]
