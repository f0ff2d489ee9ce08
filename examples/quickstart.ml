(* Quickstart: analyze a small periodic synchronous program through the
   public API and inspect the results.

   Run with:  dune exec examples/quickstart.exe *)

module C = Astree_core
module D = Astree_domains

(* A miniature member of the program family (Sect. 4): read a sensor,
   integrate it with a leak, count the cycles where it is positive. *)
let program =
  {|
volatile float sensor;   /* hardware register, range given below */
float level;
int positive_cycles;

int main(void) {
  __astree_input_range(sensor, -10.0, 10.0);
  level = 0.0f;
  positive_cycles = 0;
  while (1) {
    /* leaky integration: stays within 10/(1-0.9) = 100 */
    level = 0.9f * level + sensor;
    if (sensor > 0.0f) {
      positive_cycles = positive_cycles + 1;
    }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let () =
  (* 1. analyze with the default configuration (all domains on) *)
  let result = C.Analysis.analyze_string program in
  Fmt.pr "=== quickstart ===@.";
  Fmt.pr "alarms: %d@." (C.Analysis.n_alarms result);
  List.iter (fun a -> Fmt.pr "  %a@." C.Alarm.pp a) result.C.Analysis.r_alarms;

  (* 2. look at the invariant the analyzer found for the main loop *)
  let actx = result.C.Analysis.r_actx in
  List.iter
    (fun (loop_id, (inv : C.Astate.t)) ->
      Fmt.pr "loop %d invariant:@." loop_id;
      C.Env.iter
        (fun cell_id av ->
          let cell = C.Cell.of_id actx.C.Transfer.intern cell_id in
          Fmt.pr "  %a in %a@." C.Cell.pp cell D.Itv.pp (C.Avalue.itv av))
        inv.C.Astate.env)
    (C.Analysis.invariants result);

  (* 3. contrast with the baseline analyzer of [5] (intervals only,
     no thresholds): the same program now raises false alarms *)
  let baseline = C.Analysis.analyze_string ~cfg:C.Config.baseline program in
  Fmt.pr "baseline analyzer (intervals only): %d alarm(s)@."
    (C.Analysis.n_alarms baseline);
  List.iter
    (fun a -> Fmt.pr "  %a@." C.Alarm.pp a)
    baseline.C.Analysis.r_alarms;
  Fmt.pr "(all of these are FALSE alarms: the refined analyzer proves them impossible)@."
