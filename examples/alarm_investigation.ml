(* The alarm-inspection workflow of Sect. 3.1/3.3: analyze, take an
   alarm, extract the backward slice that leads to it, then shrink the
   slice to the variables the invariant says nothing useful about
   (abstract slicing).

   Run with:  dune exec examples/alarm_investigation.exe *)

module C = Astree_core
module F = Astree_frontend
module S = Astree_slicer
module D = Astree_domains

(* a program with a genuine defect buried behind some plumbing *)
let program =
  {|
volatile float sensor;
volatile int mode;
float gain;
float offset;
float scaled;
float unrelated_a;
float unrelated_b;
float output;

int main(void) {
  __astree_input_range(sensor, -100.0, 100.0);
  __astree_input_range(mode, 0.0, 3.0);
  gain = 1.0f; offset = 0.0f; scaled = 0.0f;
  unrelated_a = 0.0f; unrelated_b = 0.0f; output = 0.0f;
  while (1) {
    int m;
    float s;
    m = mode;
    s = sensor;
    unrelated_a = unrelated_a * 0.5f + 1.0f;
    if (m == 2) { gain = 0.0f; } else { gain = 2.0f; }
    unrelated_b = unrelated_a + 3.0f;
    scaled = s + offset;
    /* defect: gain may be 0 when m == 2 */
    output = scaled / gain;
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let () =
  Fmt.pr "=== step 1: analyze ===@.";
  let p, _ = C.Analysis.compile [ ("ctrl.c", program) ] in
  let r = C.Analysis.analyze p in
  List.iter (fun a -> Fmt.pr "%a@." C.Alarm.pp a) r.C.Analysis.r_alarms;
  match
    List.find_opt
      (fun (a : C.Alarm.t) -> a.C.Alarm.a_kind = C.Alarm.Div_by_zero)
      r.C.Analysis.r_alarms
  with
  | None -> Fmt.pr "no division alarm (unexpected)@."
  | Some alarm ->
      Fmt.pr "@.=== step 2: classical backward slice from the alarm ===@.";
      let g = S.Depgraph.build p in
      (* locate the statement containing the alarm point *)
      let crit_loc =
        let best = ref alarm.C.Alarm.a_loc in
        Array.iter
          (fun (n : S.Depgraph.node) ->
            if
              n.S.Depgraph.n_stmt.F.Tast.sloc.F.Loc.line
              = alarm.C.Alarm.a_loc.F.Loc.line
            then best := n.S.Depgraph.n_stmt.F.Tast.sloc)
          g.S.Depgraph.nodes;
        !best
      in
      let crit = { S.Slicer.c_loc = crit_loc; c_vars = None } in
      let full = S.Slicer.slice g crit in
      Fmt.pr "%a" S.Slicer.pp_slice full;
      Fmt.pr "(%d statements; the unrelated_* computations are out)@."
        (S.Slicer.slice_size full);

      Fmt.pr "@.=== step 3: abstract slice ===@.";
      (* the paper: restrict to the variables "we lack information
         about"; here: those whose invariant interval still contains the
         dangerous value or is very wide *)
      let actx = r.C.Analysis.r_actx in
      let inv =
        match C.Analysis.invariants r with
        | (_, st) :: _ -> Some st
        | [] -> None
      in
      let interesting (v : F.Tast.var) =
        match inv with
        | None -> true
        | Some st -> (
            if not (F.Ctypes.is_scalar v.F.Tast.v_ty) then false
            else
              match C.Transfer.var_itv actx st v with
              | D.Itv.Float (lo, hi) -> lo <= 0.0 && hi >= 0.0
              | D.Itv.Int (lo, hi) -> lo <= 0 && hi >= 0
              | D.Itv.Bot -> false)
      in
      let abs = S.Slicer.abstract_slice g ~interesting crit in
      Fmt.pr "%a" S.Slicer.pp_slice abs;
      Fmt.pr
        "(%d statements: only the computations feeding the possibly-zero@.\
        \ divisor remain — the paper's 'abstract slice')@."
        (S.Slicer.slice_size abs)
