(* Verifying a second-order digital filter (Fig. 1 of the paper) with the
   ellipsoid domain (Sect. 6.2.3), and comparing the proven bound against
   concrete simulated trajectories.

   Run with:  dune exec examples/filter_verification.exe *)

module C = Astree_core
module D = Astree_domains
module F = Astree_frontend

let a_coeff = 1.5
let b_coeff = 0.7

let program =
  Fmt.str
    {|
volatile float input;
volatile _Bool reinit;
float X;
float Y;

int main(void) {
  __astree_input_range(input, -1.0, 1.0);
  __astree_input_range(reinit, 0.0, 1.0);
  X = 0.0f;
  Y = 0.0f;
  while (1) {
    float t;
    t = input;
    if (reinit) {
      /* reinitialization branch of Fig. 1 */
      Y = t;
      X = t;
    } else {
      /* X' := aX - bY + t, the affine transformation Phi */
      float X2;
      X2 = %gf * X - %gf * Y + t;
      Y = X;
      X = X2;
    }
    __astree_wait_for_clock();
  }
  return 0;
}
|}
    a_coeff b_coeff

let () =
  Fmt.pr "=== second-order digital filter (a=%g, b=%g) ===@." a_coeff b_coeff;
  Fmt.pr "Prop. 1 conditions: 0 < b < 1: %b, a^2 - 4b < 0: %b@."
    (b_coeff > 0. && b_coeff < 1.)
    ((a_coeff *. a_coeff) -. (4. *. b_coeff) < 0.);

  (* 1. the full analyzer proves the filter bounded: no alarms *)
  let r = C.Analysis.analyze_string program in
  Fmt.pr "full analyzer: %d alarm(s)@." (C.Analysis.n_alarms r);

  (* extract the proven range of the filter state X *)
  let actx = r.C.Analysis.r_actx in
  let x_bound = ref None in
  List.iter
    (fun (_, (inv : C.Astate.t)) ->
      C.Env.iter
        (fun cell_id av ->
          let cell = C.Cell.of_id actx.C.Transfer.intern cell_id in
          if cell.C.Cell.root.F.Tast.v_name = "X" then
            x_bound := Some (C.Avalue.itv av))
        inv.C.Astate.env)
    (C.Analysis.invariants r);
  (match !x_bound with
  | Some i -> Fmt.pr "proven loop invariant: X in %a@." D.Itv.pp i
  | None -> Fmt.pr "no bound recorded for X@.");

  (* 2. without the ellipsoid domain, the analysis cannot bound X *)
  let cfg = { C.Config.default with C.Config.use_ellipsoids = false } in
  let r' = C.Analysis.analyze_string ~cfg program in
  Fmt.pr "without ellipsoids: %d alarm(s) (interval/octagon domains cannot@."
    (C.Analysis.n_alarms r');
  Fmt.pr " express the rotating X^2 - aXY + bY^2 <= k invariant)@.";

  (* 3. simulate concrete trajectories through the concrete interpreter
     and report the worst value reached, to show the proven bound indeed
     over-approximates reality *)
  let p, _ = C.Analysis.compile [ ("<filter>", program) ] in
  let worst = ref 0.0 in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  List.iter
    (fun seed ->
      let rng = ref seed in
      let next_float lo hi =
        rng := (!rng * 1103515245) + 12345;
        let u = float_of_int (abs !rng mod 1000000) /. 1000000.0 in
        lo +. (u *. (hi -. lo))
      in
      let input spec = next_float spec.F.Tast.in_lo spec.F.Tast.in_hi in
      let on_tick (st : F.Interp.state) =
        match F.Interp.read_global_scalar st "X" with
        | Some (F.Interp.Vfloat x) ->
            if Float.abs x > !worst then worst := Float.abs x
        | _ -> ()
      in
      match F.Interp.run ~max_ticks:5000 ~input ~on_tick p with
      | F.Interp.Finished -> ()
      | F.Interp.Error (k, l) ->
          Fmt.pr "concrete run error (unexpected): %a at %a@."
            F.Interp.pp_error_kind k F.Loc.pp l)
    seeds;
  Fmt.pr "worst |X| over %d simulated trajectories of 5000 ticks: %g@."
    (List.length seeds) !worst;
  match !x_bound with
  | Some (D.Itv.Float (lo, hi)) ->
      Fmt.pr "check: %g <= max(|%g|, |%g|): %b@." !worst lo hi
        (!worst <= Float.max (Float.abs lo) (Float.abs hi))
  | _ -> ()
