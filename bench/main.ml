(* Benchmark and experiment harness.

   Regenerates every table and figure of the paper's evaluation
   (Sect. 8, plus the quantified claims of Sect. 6.1.2, 7.1, 7.2 and
   9.4.1) on the synthetic program family.  See DESIGN.md for the
   experiment index (E1-E9, E11 and E16; E10, E12-E15, E17, E18 and
   the micro-benchmarks are retired) and EXPERIMENTS.md for recorded
   results.

     dune exec bench/main.exe            # all experiments, default sizes
     dune exec bench/main.exe -- e1 e3   # selected experiments
     dune exec bench/main.exe -- --full  # larger (slower) E1 sweep
     dune exec bench/main.exe -- --quick # smaller E16 member (CI smoke)
     dune exec bench/main.exe -- --json out.json   # machine-readable results

   Absolute times are not comparable with the paper's 2003 hardware; the
   claims checked are the *shapes*: scaling curve, alarm-reduction
   ladder, packing-optimization and sharing speedups, census ratios. *)

module C = Astree_core
module D = Astree_domains
module F = Astree_frontend
module G = Astree_gen
module P = Astree_parallel
module O = Astree_obs

let section title =
  Fmt.pr "@.==============================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "==============================================================@."

(* jobs the parallel scheduler recomputed in-process while [f] ran: 0
   unless a worker failed twice on the same job *)
let recomputed_during f =
  let c = O.Metrics.counter "par.recomputed" in
  let v0 = O.Metrics.value c in
  let r = f () in
  (r, O.Metrics.value c - v0)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* machine-readable results (--json FILE): each experiment may record a
   pre-serialized JSON value under its name; the driver writes one object
   with everything that ran.  CI's concurrency-smoke job reads E16's. *)
let json_results : (string * string) list ref = ref []
let json_record key value = json_results := (key, value) :: !json_results

let json_write path =
  let fields =
    List.rev_map
      (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v)
      !json_results
  in
  let oc = open_out path in
  output_string oc ("{" ^ String.concat ", " fields ^ "}\n");
  close_out oc;
  Fmt.pr "@.results written to %s@." path

(* Every experiment starts its analyses where the analyzer does. *)
let analyze_string ?cfg (src : string) =
  P.Scheduler.analyze ?cfg (fst (C.Analysis.compile [ ("<input>", src) ]))

let analyze ?cfg (g : G.Generator.generated) =
  analyze_string ?cfg g.G.Generator.source

let cfg_with_partitions (g : G.Generator.generated) =
  {
    C.Config.default with
    C.Config.partitioned_functions = g.G.Generator.partition_fns;
  }

(* ------------------------------------------------------------------ *)
(* E1 - Fig. 2: total analysis time vs program size                    *)
(* ------------------------------------------------------------------ *)

let e1 ~full () =
  section
    "E1 (Fig. 2): total analysis time for the family of programs\n\
     paper: 0-80 kLOC analyzed in minutes to ~2h; superlinear but\n\
     tractable curve";
  let sizes =
    if full then [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 ]
    else [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ]
  in
  Fmt.pr "%8s %8s %10s %10s %8s@." "kLOC" "lines" "time(s)" "alarms" "cells";
  let results =
    List.map
      (fun kloc ->
        let g = G.Generator.member ~kloc () in
        let cfg = cfg_with_partitions g in
        let r, dt = time (fun () -> analyze ~cfg g) in
        Fmt.pr "%8.2f %8d %10.2f %10d %8d@."
          (float_of_int g.G.Generator.n_lines /. 1000.)
          g.G.Generator.n_lines dt (C.Analysis.n_alarms r)
          r.C.Analysis.r_stats.C.Analysis.s_cells;
        (float_of_int g.G.Generator.n_lines /. 1000., dt))
      sizes
  in
  (match (results, List.rev results) with
  | (k0, t0) :: _, (k1, t1) :: _ when t0 > 0.0 && k1 > k0 ->
      let expo = log (t1 /. t0) /. log (k1 /. k0) in
      Fmt.pr
        "observed scaling: time ~ kLOC^%.2f (the paper's Fig. 2 curve is\n\
         superlinear in kLOC)@."
        expo
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* E2 - Sect. 8: alarm reduction by refinement                          *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section
    "E2 (Sect. 8): false alarms on the reference program per analyzer\n\
     refinement; paper: 1,200 alarms with the baseline [5], down to 11\n\
     (even 3) after the refinements of the paper";
  let g = G.Generator.reference ~target_lines:2000 () in
  Fmt.pr "reference program: %d lines (every alarm is a false alarm)@."
    g.G.Generator.n_lines;
  let base = C.Config.default in
  let steps =
    [
      ("intervals only (Sect. 2 start)", C.Config.intervals_only);
      ("baseline [5]: + clocked + thresholds", C.Config.baseline);
      ( "+ symbolic linearization (6.3)",
        { C.Config.baseline with C.Config.use_linearization = true } );
      ( "+ octagons (6.2.2)",
        {
          C.Config.baseline with
          C.Config.use_linearization = true;
          use_octagons = true;
        } );
      ( "+ ellipsoids (6.2.3)",
        {
          C.Config.baseline with
          C.Config.use_linearization = true;
          use_octagons = true;
          use_ellipsoids = true;
        } );
      ("+ decision trees (6.2.4)", base);
      ( "+ trace partitioning (7.1.5)",
        { base with C.Config.partitioned_functions = g.G.Generator.partition_fns }
      );
    ]
  in
  Fmt.pr "%-42s %8s %9s@." "analyzer version" "alarms" "time(s)";
  List.iter
    (fun (name, cfg) ->
      let r, dt = time (fun () -> analyze ~cfg g) in
      Fmt.pr "%-42s %8d %9.2f@." name (C.Analysis.n_alarms r) dt)
    steps

(* ------------------------------------------------------------------ *)
(* E3 - Sect. 7.2.2 / 8: packing optimization                           *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section
    "E3 (Sect. 7.2.2, 8): octagon-packing optimization\n\
     paper: 2,600 packs, only 400 useful; reusing the useful list cuts\n\
     time 1h40 -> 40min and memory 550 MB -> 150 MB";
  let g = G.Generator.member ~kloc:3.0 () in
  let cfg = cfg_with_partitions g in
  let alloc f =
    (* allocation through the analysis, as a memory-pressure proxy for
       the paper's resident-memory figures *)
    let a0 = Gc.allocated_bytes () in
    let r = f () in
    (r, (Gc.allocated_bytes () -. a0) /. 1_048_576.)
  in
  let (r, mb_full), t_full = time (fun () -> alloc (fun () -> analyze ~cfg g)) in
  let useful = C.Analysis.useful_octagon_packs r in
  let total = r.C.Analysis.r_stats.C.Analysis.s_oct_packs in
  Fmt.pr "full analysis: %d octagon packs, %d useful, %d alarms, %.2fs, %.0f MB allocated@."
    total (List.length useful) (C.Analysis.n_alarms r) t_full mb_full;
  let cfg' = { cfg with C.Config.useful_packs_only = Some ("e3", useful) } in
  let (r', mb_opt), t_opt = time (fun () -> alloc (fun () -> analyze ~cfg:cfg' g)) in
  Fmt.pr
    "rerun with useful packs only: %d packs, %d alarms, %.2fs (%.2fx), %.0f MB allocated (%.2fx)@."
    r'.C.Analysis.r_stats.C.Analysis.s_oct_packs (C.Analysis.n_alarms r')
    t_opt
    (t_full /. Float.max t_opt 1e-9)
    mb_opt
    (mb_full /. Float.max mb_opt 1e-9);
  Fmt.pr "precision preserved: %b (paper: 'perfectly safe')@."
    (C.Analysis.n_alarms r = C.Analysis.n_alarms r')

(* ------------------------------------------------------------------ *)
(* E4 - Sect. 9.4.1: main loop invariant census                         *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section
    "E4 (Sect. 9.4.1): census of the main loop invariant\n\
     paper: 6,900 boolean + 9,600 interval + 25,400 clock + 19,100\n\
     additive and 19,200 subtractive octagonal + 100 decision-tree +\n\
     1,900 ellipsoidal assertions; >16,000 fp constants (550 in the text)";
  let g = G.Generator.member ~kloc:3.0 () in
  let cfg = cfg_with_partitions g in
  let r = analyze ~cfg g in
  (match C.Invariant_census.main_loop_census r with
  | Some c ->
      Fmt.pr "%a@." C.Invariant_census.pp c;
      Fmt.pr
        "shape check: clock assertions dominate interval assertions: %b@."
        (c.C.Invariant_census.c_clock_assertions
         > c.C.Invariant_census.c_interval_assertions)
  | None -> Fmt.pr "no invariant recorded@.");
  let bytes = String.length (C.Invariant_dump.to_string r) in
  Fmt.pr "textual invariant dump: %.2f MB (paper: over 4.5 MB at 75 kLOC)@."
    (float_of_int bytes /. 1_048_576.)

(* ------------------------------------------------------------------ *)
(* E5 - Sect. 6.1.2: sharable functional maps vs arrays                 *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section
    "E5 (Sect. 6.1.2): abstract environments as sharable functional maps\n\
     paper: on a 10,000-line example the execution time was divided by 7\n\
     (quadratic behaviour of array environments)";
  Fmt.pr "%8s %14s %14s %8s@." "lines" "shared(s)" "naive(s)" "ratio";
  List.iter
    (fun kloc ->
      let g = G.Generator.member ~kloc () in
      let cfg = cfg_with_partitions g in
      let _, t_shared = time (fun () -> analyze ~cfg g) in
      let cfg_naive = { cfg with C.Config.naive_environments = true } in
      let _, t_naive = time (fun () -> analyze ~cfg:cfg_naive g) in
      Fmt.pr "%8d %14.2f %14.2f %8.2f@." g.G.Generator.n_lines t_shared
        t_naive
        (t_naive /. Float.max t_shared 1e-9))
    [ 1.0; 2.0; 4.0 ]

(* ------------------------------------------------------------------ *)
(* E6 - Sect. 7.1.2: widening thresholds                                *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section
    "E6 (Sect. 7.1.2): widening thresholds (+-alpha.lambda^k)\n\
     paper: a threshold >= the minimal admissible M proves the variable\n\
     bounded; 'the choice of alpha and lambda mostly did not matter\n\
     much ... we had to choose a smaller value for lambda to remove\n\
     some false alarms'";
  (* integrators x := alpha x + u with |u| <= U are bounded by
     M = U/(1-alpha); each feeds a 16-bit register scaled so that the
     conversion is safe iff |x| <= 2M.  Proving it needs a threshold
     >= M in the set: the sweep reproduces "as long as the set of
     thresholds contains some number greater or equal to the minimum M,
     the interval analysis ... will prove that the value of X is
     bounded". *)
  let n_integrators = 24 in
  let src =
    let buf = Buffer.create 4096 in
    let bounds = ref [] in
    for i = 0 to n_integrators - 1 do
      let alpha = 0.5 +. (0.02 *. float_of_int i) in
      let u = 1.0 +. float_of_int (i mod 7) in
      let m = u /. (1.0 -. alpha) in
      bounds := m :: !bounds;
      Buffer.add_string buf
        (Fmt.str "volatile float u%d;\nfloat x%d;\nshort o%d;\n" i i i)
    done;
    Buffer.add_string buf "int main(void) {\n";
    for i = 0 to n_integrators - 1 do
      let u = 1.0 +. float_of_int (i mod 7) in
      Buffer.add_string buf
        (Fmt.str "  __astree_input_range(u%d, %g, %g);\n  x%d = 0.0f;\n" i
           (-.u) u i)
    done;
    Buffer.add_string buf "  while (1) {\n";
    List.iteri
      (fun i m ->
        let i = n_integrators - 1 - i in
        let alpha = 0.5 +. (0.02 *. float_of_int i) in
        ignore m;
        let u = 1.0 +. float_of_int (i mod 7) in
        let bound = 2.0 *. (u /. (1.0 -. alpha)) in
        Buffer.add_string buf
          (Fmt.str
             "    x%d = %gf * x%d + u%d;\n    o%d = (short)(x%d * %gf);\n"
             i alpha i i i i (30000.0 /. bound)))
      !bounds;
    Buffer.add_string buf "    __astree_wait_for_clock();\n  }\n  return 0;\n}\n";
    Buffer.contents buf
  in
  Fmt.pr
    "%d leaky integrators, each feeding a short register scaled to 2M@."
    n_integrators;
  Fmt.pr "%-34s %8s@." "threshold set" "alarms";
  let sets =
    [
      ("none (straight to +-oo)", D.Thresholds.none);
      ("ceiling 10 (too small)", D.Thresholds.geometric ~lambda:10.0 ~n:1 ());
      ("ceiling 100", D.Thresholds.geometric ~lambda:10.0 ~n:2 ());
      ("ceiling 10^3", D.Thresholds.geometric ~lambda:10.0 ~n:3 ());
      ("default ramp to 10^40", D.Thresholds.default);
      ("dense ramp lambda=2", D.Thresholds.geometric ~lambda:2.0 ~n:40 ());
    ]
  in
  List.iter
    (fun (name, th) ->
      let cfg = { C.Config.default with C.Config.widening_thresholds = th } in
      let r = analyze_string ~cfg src in
      Fmt.pr "%-34s %8d@." name (C.Analysis.n_alarms r))
    sets

(* ------------------------------------------------------------------ *)
(* E7 - Sect. 7.1.1 / 7.1.5: unrolling and trace partitioning           *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section
    "E7 (Sect. 7.1.1, 7.1.5): loop unrolling and trace partitioning\n\
     paper: both trade analysis time for precision; partitioning is\n\
     applied in a few end-user selected functions";
  let g =
    G.Generator.generate
      {
        G.Generator.default with
        target_lines = 700;
        mix =
          [ G.Shapes.Piecewise; G.Shapes.Interpolation; G.Shapes.Counter;
            G.Shapes.Integrator ];
      }
  in
  Fmt.pr "-- trace partitioning (piecewise-heavy program) --@.";
  Fmt.pr "%-24s %8s %9s@." "partitioning" "alarms" "time(s)";
  let r_no, t_no = time (fun () -> analyze g) in
  Fmt.pr "%-24s %8d %9.2f@." "off" (C.Analysis.n_alarms r_no) t_no;
  let r_yes, t_yes = time (fun () -> analyze ~cfg:(cfg_with_partitions g) g) in
  Fmt.pr "%-24s %8d %9.2f@." "on (selected functions)"
    (C.Analysis.n_alarms r_yes) t_yes;
  Fmt.pr "-- loop unrolling --@.";
  (* accumulators over bounded scan loops: exact only when the scan is
     fully unrolled ("in general, the larger the n, the more precise the
     analysis, and the longer the analysis time") *)
  let scan_src =
    let buf = Buffer.create 2048 in
    for k = 0 to 11 do
      Buffer.add_string buf
        (Fmt.str "int out%d;\nshort reg%d;\n" k k)
    done;
    Buffer.add_string buf "int main(void) {\n  while (1) {\n";
    for k = 0 to 11 do
      Buffer.add_string buf
        (Fmt.str
           "    { int i%d; int s%d; s%d = 0; for (i%d = 0; i%d < 6; i%d = i%d + 1) { s%d = s%d + 3; } out%d = s%d; reg%d = (short)(s%d * 1000); }\n"
           k k k k k k k k k k k k k)
    done;
    Buffer.add_string buf "    __astree_wait_for_clock();\n  }\n  return 0;\n}\n";
    Buffer.contents buf
  in
  Fmt.pr "%-24s %8s %9s@." "unroll factor" "alarms" "time(s)";
  List.iter
    (fun n ->
      let cfg = { C.Config.default with C.Config.loop_unroll = n } in
      let r, dt =
        time (fun () -> analyze_string ~cfg scan_src)
      in
      Fmt.pr "%-24d %8d %9.2f@." n (C.Analysis.n_alarms r) dt)
    [ 0; 1; 2; 4; 6 ]

(* ------------------------------------------------------------------ *)
(* E8 - Sect. 7.2.3: decision-tree pack size                            *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section
    "E8 (Sect. 7.2.3): booleans per decision-tree pack\n\
     paper: unbounded packs reached 36 booleans with very bad\n\
     performance; the bound of three gives an efficient and precise\n\
     analysis";
  let g =
    G.Generator.generate
      {
        G.Generator.default with
        target_lines = 400;
        mix = [ G.Shapes.Relay_chain; G.Shapes.Relay; G.Shapes.Channel ];
      }
  in
  Fmt.pr "%-18s %8s %8s %9s@." "max booleans" "packs" "alarms" "time(s)";
  List.iter
    (fun n ->
      let cfg = { C.Config.default with C.Config.max_dtree_bools = n } in
      let r, dt = time (fun () -> analyze ~cfg g) in
      Fmt.pr "%-18d %8d %8d %9.2f@." n
        r.C.Analysis.r_stats.C.Analysis.s_dt_packs (C.Analysis.n_alarms r) dt)
    [ 0; 1; 3; 8 ]

(* ------------------------------------------------------------------ *)
(* E9 - Sect. 6.2.3: ellipsoid bound vs concrete trajectories           *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section
    "E9 (Sect. 6.2.3, Fig. 1): ellipsoid invariant of the second-order\n\
     filter vs simulated concrete trajectories (Prop. 1)";
  let a_c = 1.5 and b_c = 0.7 in
  let src =
    Fmt.str
      {|
volatile float fin;
volatile _Bool rst;
float X; float Y;
int main(void) {
  __astree_input_range(fin, -1.0, 1.0);
  __astree_input_range(rst, 0.0, 1.0);
  X = 0.0f; Y = 0.0f;
  while (1) {
    float t;
    t = fin;
    if (rst) { Y = t; X = t; }
    else { float X2; X2 = %gf * X - %gf * Y + t; Y = X; X = X2; }
    __astree_wait_for_clock();
  }
  return 0;
}
|}
      a_c b_c
  in
  let r = analyze_string src in
  Fmt.pr "alarms on the filter: %d@." (C.Analysis.n_alarms r);
  let proven = ref Float.infinity in
  List.iter
    (fun (_, (inv : C.Astate.t)) ->
      C.Env.iter
        (fun cid av ->
          let c = C.Cell.of_id r.C.Analysis.r_actx.C.Transfer.intern cid in
          if C.Cell.to_string c = "X" then
            match C.Avalue.itv av with
            | D.Itv.Float (lo, hi) ->
                proven := Float.max (Float.abs lo) (Float.abs hi)
            | _ -> ())
        inv.C.Astate.env)
    (C.Analysis.invariants r);
  Fmt.pr "proven |X| bound: %g@." !proven;
  let k_star = (1.0 /. (1.0 -. sqrt b_c)) ** 2.0 in
  let ideal = 2.0 *. sqrt (b_c *. k_star /. ((4.0 *. b_c) -. (a_c *. a_c))) in
  Fmt.pr "Prop. 1 ideal bound (exact arithmetic): %g@." ideal;
  let p, _ = C.Analysis.compile [ ("<e9>", src) ] in
  let worst = ref 0.0 in
  for seed = 1 to 10 do
    let state = ref seed in
    let input (spec : F.Tast.input_spec) =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      let u = float_of_int !state /. float_of_int 0x3FFFFFFF in
      if spec.F.Tast.in_var.F.Tast.v_orig = "rst" then
        if u < 0.01 then 1.0 else 0.0
      else spec.F.Tast.in_lo +. (u *. (spec.F.Tast.in_hi -. spec.F.Tast.in_lo))
    in
    let on_tick (st : F.Interp.state) =
      match F.Interp.read_global_scalar st "X" with
      | Some (F.Interp.Vfloat x) ->
          if Float.abs x > !worst then worst := Float.abs x
      | _ -> ()
    in
    ignore (F.Interp.run ~max_ticks:20_000 ~input ~on_tick p)
  done;
  Fmt.pr "worst |X| over 10 concrete trajectories of 20k ticks: %g@." !worst;
  Fmt.pr "soundness: simulated %g <= proven %g: %b@." !worst !proven
    (!worst <= !proven)

(* ------------------------------------------------------------------ *)
(* E11 - incremental analysis: the summary cache of lib/incremental    *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section
    "E11: incremental analysis (--cache dir): content-addressed\n\
     function summaries persisted across runs\n\
     claims checked: warm fingerprints identical to cold and to the\n\
     cache-less analyzer; warm re-analysis of an unchanged program is\n\
     >= 2x faster";
  let dir = Filename.temp_file "astree-e11" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let cache_line (r : C.Analysis.result) =
        match r.C.Analysis.r_stats.C.Analysis.s_cache with
        | Some c ->
            Fmt.str "%d hit(s) / %d miss(es), %d loaded" c.C.Analysis.c_hits
              c.C.Analysis.c_misses c.C.Analysis.c_loaded
        | None -> "cache off"
      in
      (* single member, sequential: cache-off baseline, cold store
         write, warm store reuse *)
      let g =
        G.Generator.generate
          { G.Generator.default with G.Generator.target_lines = 2200; fuse = 16 }
      in
      let base = cfg_with_partitions g in
      let ccfg =
        { base with C.Config.summary_cache = C.Config.Cache_dir dir }
      in
      let p, _ = C.Analysis.compile [ ("member.c", g.G.Generator.source) ] in
      let off, t_off = time (fun () -> P.Scheduler.analyze ~cfg:base p) in
      let f_off = P.Merge.fingerprint off in
      let cold, t_cold = time (fun () -> P.Scheduler.analyze ~cfg:ccfg p) in
      let warm, t_warm = time (fun () -> P.Scheduler.analyze ~cfg:ccfg p) in
      Fmt.pr "@.single member (%.1f kLOC), -j 1:@."
        (float_of_int g.G.Generator.n_lines /. 1000.);
      Fmt.pr "%12s %10s %9s %10s   %s@." "run" "time(s)" "speedup"
        "identical" "cache";
      Fmt.pr "%12s %10.2f %9s %10s   %s@." "cache-off" t_off "1.00x" "-"
        (cache_line off);
      Fmt.pr "%12s %10.2f %8.2fx %10b   %s@." "cold" t_cold (t_off /. t_cold)
        (P.Merge.fingerprint cold = f_off)
        (cache_line cold);
      Fmt.pr "%12s %10.2f %8.2fx %10b   %s@." "warm" t_warm (t_off /. t_warm)
        (P.Merge.fingerprint warm = f_off)
        (cache_line warm);
      Fmt.pr "warm >= 2x faster than cold: %b@." (t_cold /. t_warm >= 2.0))

(* ------------------------------------------------------------------ *)
(* E16 - multi-task interference fixpoint                               *)
(* ------------------------------------------------------------------ *)

let e16 ~quick () =
  section
    "E16: multi-task interference fixpoint (lib/concurrency)\n\
     claims checked: the outer rely/guarantee iteration converges in\n\
     <= 5 rounds on generated multi-task members; dispatching the\n\
     per-task analyses to the pool (-j 4) reproduces the -j 1\n\
     fingerprint exactly and, on a multi-core machine, runs >= 1.5x\n\
     faster on a 4-task member";
  let cores = P.Scheduler.default_jobs () in
  Fmt.pr "cores available: %d@." cores;
  let tasks_n = 4 in
  let g =
    G.Generator.generate_tasks
      {
        G.Generator.default with
        G.Generator.seed = 16;
        target_lines = (if quick then 1500 else 4000);
        bug_ratio = 0.25;
      }
      ~tasks:tasks_n
  in
  let p, _ =
    C.Analysis.compile [ ("member.c", g.G.Generator.source) ]
  in
  let tasks = g.G.Generator.task_fns in
  let conc = Astree_conc.Fixpoint.analyze ~tasks in
  let r1, t1 = time (fun () -> conc ~cfg:C.Config.default p) in
  let (r4, t4), recomputed =
    recomputed_during (fun () ->
        time (fun () ->
            conc ~cfg:{ C.Config.default with C.Config.jobs = 4 } p))
  in
  let fp1 = P.Merge.fingerprint r1.Astree_conc.Fixpoint.c_result in
  let fp4 = P.Merge.fingerprint r4.Astree_conc.Fixpoint.c_result in
  let rounds = r1.Astree_conc.Fixpoint.c_rounds in
  let stabilized =
    r1.Astree_conc.Fixpoint.c_stabilized
    && r4.Astree_conc.Fixpoint.c_stabilized
  in
  let speedup = t1 /. t4 in
  Fmt.pr
    "@.%d tasks, %d shared variables, ~%.1f kLOC member (%d alarms)@."
    tasks_n
    (List.length r1.Astree_conc.Fixpoint.c_shared)
    (float_of_int g.G.Generator.n_lines /. 1000.)
    (C.Analysis.n_alarms r1.Astree_conc.Fixpoint.c_result);
  Fmt.pr "rounds: %d (stabilized: %b, <= 5: %b)@." rounds stabilized
    (rounds <= 5);
  Fmt.pr "%6s %10s %9s@." "jobs" "time(s)" "speedup";
  Fmt.pr "%6d %10.2f %9s@." 1 t1 "1.00x";
  Fmt.pr "%6d %10.2f %8.2fx   (%d per-task runs recomputed in-process)@." 4
    t4 speedup recomputed;
  Fmt.pr "fingerprints identical: %b   speedup >= 1.5x: %b%s@."
    (fp1 = fp4) (speedup >= 1.5)
    (if cores < 4 && speedup < 1.5 then
       Fmt.str " (only %d cores: speedup not expected here)" cores
     else "");
  json_record "e16"
    (Printf.sprintf
       "{\"quick\": %b, \"cores\": %d, \"tasks\": %d, \"shared_vars\": %d, \
        \"lines\": %d, \"rounds\": %d, \"stabilized\": %b, \
        \"rounds_le_5\": %b, \"t_j1\": %.4f, \"t_j4\": %.4f, \"speedup\": \
        %.3f, \"speedup_ge_1_5x\": %b, \"conc_fingerprint_identical\": %b, \
        \"recomputed\": %d}"
       quick cores tasks_n
       (List.length r1.Astree_conc.Fixpoint.c_shared)
       g.G.Generator.n_lines rounds stabilized (rounds <= 5) t1 t4 speedup
       (speedup >= 1.5) (fp1 = fp4) recomputed)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let quick = List.mem "--quick" args in
  let rec take_json acc = function
    | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
    | a :: rest -> take_json (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_path, args = take_json [] args in
  let args =
    List.filter (fun a -> a <> "--full" && a <> "--quick") args
  in
  let all = args = [] || List.mem "all" args in
  let want e = all || List.mem e args in
  if want "e1" then e1 ~full ();
  if want "e2" then e2 ();
  if want "e3" then e3 ();
  if want "e4" then e4 ();
  if want "e5" then e5 ();
  if want "e6" then e6 ();
  if want "e7" then e7 ();
  if want "e8" then e8 ();
  if want "e9" then e9 ();
  if want "e11" then e11 ();
  if want "e16" then e16 ~quick ();
  (match json_path with Some path -> json_write path | None -> ());
  Fmt.pr "@.done.@."
