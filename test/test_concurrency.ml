(* Multi-task interference analysis: taskmodel extraction, interference
   map algebra, outer-fixpoint convergence and soundness against the
   concrete-interleaving oracle. *)

module C = Astree_core
module D = Astree_domains
module F = Astree_frontend
module G = Astree_gen
module P = Astree_parallel
module R = Astree_robust
module Conc = Astree_conc

let compile src =
  let ast = F.Parser.parse_string ~file:"<t>" src in
  let p = F.Typecheck.elab_program ast in
  fst (F.Simplify.run p)

(* ------------------------------------------------------------------ *)
(* Interference map algebra                                            *)
(* ------------------------------------------------------------------ *)

let k1 = (1, [])
let k2 = (2, [ C.Cell.Selem 0 ])

let test_map_ops () =
  let m1 = [ (k1, D.Itv.int_range 0 5) ] in
  let m2 = [ (k1, D.Itv.int_range 3 9); (k2, D.Itv.int_range 1 1) ] in
  let j = Conc.Interference.join m1 m2 in
  Alcotest.(check bool) "join upper-bounds both" true
    (Conc.Interference.subset m1 j && Conc.Interference.subset m2 j);
  Alcotest.(check int) "join cardinal" 2 (Conc.Interference.cardinal j);
  Alcotest.(check bool) "subset reflexive" true
    (Conc.Interference.subset j j);
  Alcotest.(check bool) "strict subset" false (Conc.Interference.subset j m1);
  let w = Conc.Interference.widen m1 m2 in
  Alcotest.(check bool) "widening upper-bounds the join" true
    (Conc.Interference.subset j w);
  (* widening is idempotent once stable *)
  Alcotest.(check bool) "stable under repeat" true
    (Conc.Interference.equal w (Conc.Interference.widen w w));
  Alcotest.(check bool) "digest distinguishes maps" true
    (Conc.Interference.digest m1 <> Conc.Interference.digest m2);
  let tbl = Conc.Interference.to_table m2 in
  Alcotest.(check bool) "table round-trip" true
    (Conc.Interference.equal m2 (Conc.Interference.of_table tbl))

(* ------------------------------------------------------------------ *)
(* Task model                                                          *)
(* ------------------------------------------------------------------ *)

let src_two_tasks =
  {|
int g;
int h;
void t1(void) { while (1) { g = g + 1; __astree_wait_for_clock(); } }
void t2(void) { while (1) { h = g; __astree_wait_for_clock(); } }
int main(void) { while (1) { __astree_wait_for_clock(); } }
|}

let test_taskmodel () =
  let p = compile src_two_tasks in
  let tm = Conc.Taskmodel.build p [ "t1"; "t2" ] in
  Alcotest.(check (list string))
    "shared = written by one, read by another" [ "g" ]
    (List.map (fun (v : F.Tast.var) -> v.F.Tast.v_name)
       tm.Conc.Taskmodel.tm_shared);
  (* a bad task list is an analysis error: the CLI prints its one-line
     diagnosis and exits 124, the daemon refuses the request with it *)
  List.iter
    (fun (what, tasks, msg) ->
      match Conc.Taskmodel.build p tasks with
      | _ -> Alcotest.failf "%s accepted" what
      | exception e ->
          Alcotest.(check (option string)) (what ^ " rejected") (Some msg)
            (C.Analysis.diagnosis e))
    [
      ("unknown task", [ "t1"; "nope" ], "unknown task \"nope\"");
      ("duplicate task", [ "t1"; "t1" ], "duplicate task \"t1\"");
      ("single task", [ "t1" ], "a multi-task program needs at least two tasks");
    ]

(* ------------------------------------------------------------------ *)
(* Fixpoint: precision and soundness on the canonical race            *)
(* ------------------------------------------------------------------ *)

let ring_src ~racy =
  Fmt.str
    {|
volatile int raw;
int chan;
const int conv[12] = {0,1,2,3,4,5,6,7,8,9,10,11};
int out;
void prod(void) { while (1) { %s __astree_wait_for_clock(); } }
void cons(void) { while (1) { out = conv[chan]; __astree_wait_for_clock(); } }
int main(void) {
  __astree_input_range(raw, 0, 1000);
  while (1) { __astree_wait_for_clock(); }
}
|}
    (if racy then "chan = raw; chan = chan % 12;" else "chan = raw % 12;")

let has_oob (alarms : C.Alarm.t list) =
  List.exists
    (fun (a : C.Alarm.t) -> a.C.Alarm.a_kind = C.Alarm.Out_of_bounds)
    alarms

let test_ring_precision () =
  let tasks = [ "prod"; "cons" ] in
  let safe = Conc.Fixpoint.analyze ~tasks (compile (ring_src ~racy:false)) in
  Alcotest.(check bool) "safe ring: no out-of-bounds" false
    (has_oob safe.Conc.Fixpoint.c_result.C.Analysis.r_alarms);
  Alcotest.(check bool) "safe ring stabilizes" true
    safe.Conc.Fixpoint.c_stabilized;
  let racy = Conc.Fixpoint.analyze ~tasks (compile (ring_src ~racy:true)) in
  Alcotest.(check bool) "racy ring: out-of-bounds alarmed" true
    (has_oob racy.Conc.Fixpoint.c_result.C.Analysis.r_alarms);
  Alcotest.(check (list string))
    "chan is the shared variable" [ "chan" ] racy.Conc.Fixpoint.c_shared

let test_ring_oracle () =
  let p = compile (ring_src ~racy:true) in
  let tasks = [ "prod"; "cons" ] in
  let r = Conc.Fixpoint.analyze ~tasks p in
  let errs =
    Conc.Oracle.run_schedules ~max_ticks:50 ~schedules:200 ~seed:7 ~tasks p
  in
  (* the race must actually fire concretely on some schedule — otherwise
     this test is vacuous *)
  Alcotest.(check bool) "oracle exhibits the race" true (errs <> []);
  Alcotest.(check (list string)) "every concrete error is alarmed" []
    (List.map
       (fun (k, l) -> Fmt.str "%a@%a" F.Interp.pp_error_kind k F.Loc.pp l)
       (Conc.Oracle.uncovered r.Conc.Fixpoint.c_result.C.Analysis.r_alarms
          errs))

(* ------------------------------------------------------------------ *)
(* Fixpoint: widening and termination                                  *)
(* ------------------------------------------------------------------ *)

(* Two tasks feeding each other an unbounded ramp: without widening the
   interference maps grow by one every round. *)
let src_ramp =
  {|
int x;
int y;
void t1(void) { while (1) { x = y + 1; __astree_wait_for_clock(); } }
void t2(void) { while (1) { y = x + 1; __astree_wait_for_clock(); } }
int main(void) { while (1) { __astree_wait_for_clock(); } }
|}

let test_ramp_terminates () =
  let r = Conc.Fixpoint.analyze ~tasks:[ "t1"; "t2" ] (compile src_ramp) in
  Alcotest.(check bool) "stabilized" true r.Conc.Fixpoint.c_stabilized;
  Alcotest.(check bool)
    (Fmt.str "converged in %d rounds (<= 5)" r.Conc.Fixpoint.c_rounds)
    true
    (r.Conc.Fixpoint.c_rounds <= 5);
  Alcotest.(check (list string))
    "both ramp variables shared" [ "x"; "y" ] r.Conc.Fixpoint.c_shared

let test_generated_converge () =
  List.iter
    (fun seed ->
      let g =
        G.Generator.generate_tasks
          { G.Generator.default with seed; target_lines = 120; bug_ratio = 0.5 }
          ~tasks:3
      in
      let p = compile g.G.Generator.source in
      let r =
        Conc.Fixpoint.analyze ~tasks:g.G.Generator.task_fns p
      in
      Alcotest.(check bool)
        (Fmt.str "seed %d stabilized in %d rounds" seed r.Conc.Fixpoint.c_rounds)
        true
        (r.Conc.Fixpoint.c_stabilized && r.Conc.Fixpoint.c_rounds <= 5))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Differential oracle over generated families                         *)
(* ------------------------------------------------------------------ *)

let test_differential_families () =
  let uncovered = ref [] in
  let concrete_hits = ref 0 in
  for seed = 1 to 10 do
    let g =
      G.Generator.generate_tasks
        {
          G.Generator.default with
          seed;
          target_lines = 100;
          bug_ratio = (if seed mod 2 = 0 then 1.0 else 0.0);
        }
        ~tasks:2
    in
    let p = compile g.G.Generator.source in
    let tasks = g.G.Generator.task_fns in
    let r = Conc.Fixpoint.analyze ~tasks p in
    let errs =
      Conc.Oracle.run_schedules ~max_ticks:40 ~schedules:60 ~seed p ~tasks
    in
    if errs <> [] then incr concrete_hits;
    List.iter
      (fun e ->
        uncovered :=
          Fmt.str "seed %d: %a@%a" seed F.Interp.pp_error_kind (fst e) F.Loc.pp
            (snd e)
          :: !uncovered)
      (Conc.Oracle.uncovered r.Conc.Fixpoint.c_result.C.Analysis.r_alarms errs)
  done;
  Alcotest.(check (list string))
    "concrete interleaving errors are covered by alarms" [] !uncovered;
  Alcotest.(check bool) "some racy member fails concretely" true
    (!concrete_hits > 0)

(* ------------------------------------------------------------------ *)
(* Per-task runs on the worker pool                                    *)
(* ------------------------------------------------------------------ *)

let test_jobs_parity () =
  let g =
    G.Generator.generate_tasks
      { G.Generator.default with seed = 5; target_lines = 150; bug_ratio = 0.5 }
      ~tasks:4
  in
  let p = compile g.G.Generator.source in
  let tasks = g.G.Generator.task_fns in
  let r1 = Conc.Fixpoint.analyze ~cfg:C.Config.default ~tasks p in
  let recomputed = Astree_obs.Metrics.counter "par.recomputed" in
  let v0 = Astree_obs.Metrics.value recomputed in
  let r4 =
    Conc.Fixpoint.analyze
      ~cfg:{ C.Config.default with C.Config.jobs = 4 }
      ~tasks p
  in
  (* on a healthy run every per-task reply comes back from a worker *)
  if R.Faultsim.describe () = "faults: off" then
    Alcotest.(check int) "no per-task run recomputed in-process" 0
      (Astree_obs.Metrics.value recomputed - v0);
  Alcotest.(check string) "-j1 and -j4 fingerprints agree"
    (P.Merge.fingerprint r1.Conc.Fixpoint.c_result)
    (P.Merge.fingerprint r4.Conc.Fixpoint.c_result);
  Alcotest.(check int) "same round count" r1.Conc.Fixpoint.c_rounds
    r4.Conc.Fixpoint.c_rounds

(* The [analysis.*] gauges of [genfamily --kloc 1 --tasks 3 --bugs 1.0
   --seed 5] describe the combined result at -j 1 and at -j 2, where
   the per-task runs set theirs in the workers, whose deltas drop
   gauges.  Each run starts from zeroed gauges, as a fresh process
   starts without them. *)
let test_gauges_combined () =
  let g =
    G.Generator.generate_tasks
      {
        G.Generator.seed = 5;
        target_lines = 1000;
        mix = G.Shapes.all_safe_kinds;
        bug_ratio = 1.0;
        fuse = 1;
      }
      ~tasks:3
  in
  let p = compile g.G.Generator.source in
  let module M = Astree_obs.Metrics in
  let analysis_gauges () =
    let s = M.snapshot () in
    List.filter_map
      (fun n ->
        if String.starts_with ~prefix:"analysis." n then
          Some (n, Option.value ~default:0 (M.find_int s n))
        else None)
      (M.names s)
  in
  let run jobs =
    List.iter (fun (n, _) -> M.reset_named n) (analysis_gauges ());
    let r =
      Conc.Fixpoint.analyze
        ~cfg:{ C.Config.default with C.Config.jobs }
        ~tasks:g.G.Generator.task_fns p
    in
    (r.Conc.Fixpoint.c_result, analysis_gauges ())
  in
  let r1, g1 = run 1 in
  let _, g2 = run 2 in
  Alcotest.(check (list (pair string int))) "-j 1 = -j 2" g1 g2;
  Alcotest.(check (list (pair string int)))
    "the combined result's measures"
    [
      ("analysis.alarms", C.Analysis.n_alarms r1);
      ("analysis.cells", r1.C.Analysis.r_stats.C.Analysis.s_cells);
    ]
    (List.filter
       (fun (n, _) -> n = "analysis.alarms" || n = "analysis.cells")
       g1)

(* A multi-task report states the program's measures once, though
   every task's run numbers the same cells: the racy member of
   [genfamily --kloc 1 --tasks 3 --bugs 1.0 --seed 5] has 416 cells,
   720 statements and 90 octagon packs, not three times as many, at
   -j 1 and at -j 2. *)
let test_program_measures_once () =
  let g =
    G.Generator.generate_tasks
      {
        G.Generator.seed = 5;
        target_lines = 1000;
        mix = G.Shapes.all_safe_kinds;
        bug_ratio = 1.0;
        fuse = 1;
      }
      ~tasks:3
  in
  let p = compile g.G.Generator.source in
  List.iter
    (fun jobs ->
      let s =
        (Conc.Fixpoint.analyze
           ~cfg:{ C.Config.default with C.Config.jobs }
           ~tasks:g.G.Generator.task_fns p)
          .Conc.Fixpoint.c_result.C.Analysis.r_stats
      in
      Alcotest.(check (list int))
        (Printf.sprintf "-j %d: cells, statements, octagon packs" jobs)
        [ 416; 720; 90 ]
        [
          s.C.Analysis.s_cells; s.C.Analysis.s_stmts; s.C.Analysis.s_oct_packs;
        ])
    [ 1; 2 ]

(* An interrupt during a pooled run (the flag preset: the pool's first
   budget poll sees it, the same path a SIGINT mid-run takes) escapes
   as [Tripped Interrupted] — there is no partial multi-task result —
   after the pool forked its two workers, and leaves no worker behind:
   afterwards this process has no child, running or zombie. *)
let test_interrupt_reaps_workers () =
  let p = compile src_two_tasks in
  R.Budget.interrupt ();
  Fun.protect ~finally:R.Budget.clear_interrupt (fun () ->
      match
        Conc.Fixpoint.analyze
          ~cfg:{ C.Config.default with C.Config.jobs = 2 }
          ~tasks:[ "t1"; "t2" ] p
      with
      | _ -> Alcotest.fail "expected Tripped Interrupted"
      | exception R.Budget.Tripped R.Budget.Interrupted -> ());
  Alcotest.(check bool)
    "every worker reaped" true
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Generator: determinism and markers                                  *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let cfg =
    { G.Generator.default with seed = 11; target_lines = 200; bug_ratio = 0.4 }
  in
  let a = G.Generator.generate_tasks cfg ~tasks:3 in
  let b = G.Generator.generate_tasks cfg ~tasks:3 in
  Alcotest.(check string) "byte-identical regeneration" a.G.Generator.source
    b.G.Generator.source;
  Alcotest.(check (list string))
    "task marker matches task_fns" a.G.Generator.task_fns
    (F.Preproc.task_markers a.G.Generator.source);
  (* the sequential generator emits no marker *)
  Alcotest.(check (list string))
    "sequential member has no tasks" []
    (F.Preproc.task_markers
       (G.Generator.generate { cfg with G.Generator.bug_ratio = 0.0 })
         .G.Generator.source)

let suite =
  [
    Alcotest.test_case "interference map algebra" `Quick test_map_ops;
    Alcotest.test_case "taskmodel shared discovery" `Quick test_taskmodel;
    Alcotest.test_case "ring precision (safe vs racy)" `Quick
      test_ring_precision;
    Alcotest.test_case "ring race covered by alarms" `Quick test_ring_oracle;
    Alcotest.test_case "widening terminates the ramp" `Quick
      test_ramp_terminates;
    Alcotest.test_case "generated families converge" `Slow
      test_generated_converge;
    Alcotest.test_case "differential oracle over families" `Slow
      test_differential_families;
    Alcotest.test_case "-j1 / -j4 parity" `Slow test_jobs_parity;
    Alcotest.test_case "interrupt at -j 2 reaps every worker" `Quick
      test_interrupt_reaps_workers;
    Alcotest.test_case "generator determinism + markers" `Quick
      test_generator_deterministic;
    Alcotest.test_case "analysis gauges: combined at -j 1 and -j 2" `Quick
      test_gauges_combined;
    Alcotest.test_case "program measures counted once" `Quick
      test_program_measures_once;
  ]
