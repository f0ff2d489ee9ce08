(* Benchmark and experiment harness.

   Regenerates every table and figure of the paper's evaluation
   (Sect. 8, plus the quantified claims of Sect. 6.1.2, 7.1, 7.2 and
   9.4.1) on the synthetic program family.  See DESIGN.md for the
   experiment index (E1-E15) and EXPERIMENTS.md for recorded results.

     dune exec bench/main.exe            # all experiments, default sizes
     dune exec bench/main.exe -- e1 e3   # selected experiments
     dune exec bench/main.exe -- micro   # bechamel micro-benchmarks
     dune exec bench/main.exe -- --full  # larger (slower) E1 sweep
     dune exec bench/main.exe -- --quick # smaller E12 workload (CI smoke)
     dune exec bench/main.exe -- --json out.json   # machine-readable results

   Absolute times are not comparable with the paper's 2003 hardware; the
   claims checked are the *shapes*: scaling curve, alarm-reduction
   ladder, packing-optimization and sharing speedups, census ratios. *)

module C = Astree_core
module D = Astree_domains
module F = Astree_frontend
module G = Astree_gen
module I = Astree_incremental
module P = Astree_parallel
module R = Astree_robust
module O = Astree_obs
module Srv = Astree_server

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
   with everything that ran.  CI's bench-smoke job uploads this file. *)
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

let analyze ?(cfg = C.Config.default) (g : G.Generator.generated) =
  C.Analysis.analyze_string ~cfg g.G.Generator.source

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
      let r = C.Analysis.analyze_string ~cfg src in
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
        time (fun () -> C.Analysis.analyze_string ~cfg scan_src)
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
  let r = C.Analysis.analyze_string src in
  Fmt.pr "alarms on the filter: %d@." (C.Analysis.n_alarms r);
  let proven = ref Float.infinity in
  Hashtbl.iter
    (fun _ (inv : C.Astate.t) ->
      C.Env.iter
        (fun cid av ->
          let c = C.Cell.of_id r.C.Analysis.r_actx.C.Transfer.intern cid in
          if C.Cell.to_string c = "X" then
            match C.Avalue.itv av with
            | D.Itv.Float (lo, hi) ->
                proven := Float.max (Float.abs lo) (Float.abs hi)
            | _ -> ())
        inv.C.Astate.env)
    r.C.Analysis.r_actx.C.Transfer.invariants;
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
(* E10 - parallel analysis: whole-program batch jobs on lib/parallel   *)
(* ------------------------------------------------------------------ *)

let e10 ~quick () =
  section
    "E10: parallel analysis (-j n), process pool + deterministic merge\n\
     claim checked: every -j n fingerprint equals the -j 1 fingerprint;\n\
     speedup is reported against the machine's actual core count";
  let cores = P.Scheduler.default_jobs () in
  Fmt.pr "cores available: %d@." cores;
  (* whole-program batch jobs — a domain-refinement ladder over one
     family member, one full analysis per rung *)
  let g = G.Generator.member ~kloc:(if quick then 0.5 else 2.0) () in
  let base = cfg_with_partitions g in
  let ladder =
    [
      ("full", base);
      ("no-oct", { base with C.Config.use_octagons = false });
      ("no-ell", { base with C.Config.use_ellipsoids = false });
      ("no-dt", { base with C.Config.use_decision_trees = false });
      ("no-clock", { base with C.Config.use_clocked = false });
      ( "no-thresholds",
        { base with C.Config.widening_thresholds = D.Thresholds.none } );
    ]
  in
  let p, _ = C.Analysis.compile [ ("member.c", g.G.Generator.source) ] in
  let items =
    List.map (fun (label, cfg) -> P.Scheduler.batch_job ~label ~cfg p) ladder
  in
  let fingerprints rs = List.map (fun (_, r) -> P.Merge.fingerprint r) rs in
  let seq, t1 = time (fun () -> P.Scheduler.analyze_batch ~jobs:1 items) in
  let fp1 = fingerprints seq in
  (* one row = (jobs, seconds, fingerprints identical to -j 1, jobs the
     scheduler recomputed in-process) *)
  let print_rows t_seq rows =
    Fmt.pr "%6s %10s %9s %10s %11s@." "jobs" "time(s)" "speedup" "identical"
      "recomputed";
    Fmt.pr "%6d %10.2f %9s %10s %11s@." 1 t_seq "1.00x" "-" "-";
    List.iter
      (fun (jobs, dt, ok, rc) ->
        Fmt.pr "%6d %10.2f %8.2fx %10b %11d@." jobs dt (t_seq /. dt) ok rc)
      rows
  in
  let batch_rows =
    List.map
      (fun jobs ->
        let (rs, dt), rc =
          recomputed_during (fun () ->
              time (fun () -> P.Scheduler.analyze_batch ~jobs items))
        in
        (jobs, dt, fingerprints rs = fp1, rc))
      (if quick then [ 2; 4 ] else [ 2; 4; 8 ])
  in
  Fmt.pr "@.batch: %d-rung refinement ladder on a %.1f kLOC member@."
    (List.length ladder)
    (float_of_int g.G.Generator.n_lines /. 1000.);
  print_rows t1 batch_rows;
  let all_identical = List.for_all (fun (_, _, ok, _) -> ok) batch_rows in
  Fmt.pr "@.fingerprints identical everywhere: %b@." all_identical;
  let rows_json rows =
    String.concat ", "
      (List.map
         (fun (j, dt, ok, rc) ->
           Printf.sprintf
             "{\"jobs\": %d, \"time_s\": %.6f, \"identical\": %b, \
              \"recomputed\": %d}"
             j dt ok rc)
         rows)
  in
  json_record "e10"
    (Printf.sprintf
       "{\"quick\": %b, \"cores\": %d, \"t_batch_j1\": %.6f, \
        \"batch\": [%s], \"fingerprints_identical\": %b}"
       quick cores t1 (rows_json batch_rows) all_identical)

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
  I.Summary.register ();
  let dir = Filename.temp_file "astree-e11" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      C.Analysis.cache_driver := None;
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
      let off, t_off = time (fun () -> C.Analysis.analyze ~cfg:base p) in
      let f_off = P.Merge.fingerprint off in
      let cold, t_cold = time (fun () -> C.Analysis.analyze ~cfg:ccfg p) in
      let warm, t_warm = time (fun () -> C.Analysis.analyze ~cfg:ccfg p) in
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
      Fmt.pr "warm >= 2x faster than cold: %b@." (t_cold /. t_warm >= 2.0);
      (* unchanged family batch, -j 4: the paper's nightly re-analysis
         scenario — every member re-verified from its stored summaries *)
      let members =
        List.map
          (fun seed ->
            G.Generator.generate
              {
                G.Generator.default with
                G.Generator.seed;
                target_lines = 1200;
                fuse = 16;
              })
          [ 31; 32; 33; 34 ]
      in
      let programs =
        List.mapi
          (fun i (m : G.Generator.generated) ->
            fst
              (C.Analysis.compile
                 [ (Fmt.str "m%d.c" i, m.G.Generator.source) ]))
          members
      in
      let items cache =
        List.mapi
          (fun i ((m : G.Generator.generated), p) ->
            let cfg =
              {
                C.Config.default with
                C.Config.partitioned_functions = m.G.Generator.partition_fns;
                summary_cache =
                  (if cache then C.Config.Cache_dir dir
                   else C.Config.Cache_off);
              }
            in
            P.Scheduler.batch_job ~label:(Fmt.str "m%d" i) ~cfg p)
          (List.combine members programs)
      in
      let fingerprints rs = List.map (fun (_, r) -> P.Merge.fingerprint r) rs in
      let b_off, bt_off =
        time (fun () -> P.Scheduler.analyze_batch ~jobs:4 (items false))
      in
      let fb = fingerprints b_off in
      let b_cold, bt_cold =
        time (fun () -> P.Scheduler.analyze_batch ~jobs:4 (items true))
      in
      let b_warm, bt_warm =
        time (fun () -> P.Scheduler.analyze_batch ~jobs:4 (items true))
      in
      Fmt.pr "@.unchanged family batch (%d members, ~1.2 kLOC each), -j 4:@."
        (List.length members);
      Fmt.pr "%12s %10s %9s %10s@." "run" "time(s)" "speedup" "identical";
      Fmt.pr "%12s %10.2f %9s %10s@." "cache-off" bt_off "1.00x" "-";
      Fmt.pr "%12s %10.2f %8.2fx %10b@." "cold" bt_cold (bt_off /. bt_cold)
        (fingerprints b_cold = fb);
      Fmt.pr "%12s %10.2f %8.2fx %10b@." "warm" bt_warm (bt_off /. bt_warm)
        (fingerprints b_warm = fb);
      Fmt.pr "warm batch >= 2x faster than cold: %b@."
        (bt_cold /. bt_warm >= 2.0))

(* ------------------------------------------------------------------ *)
(* E12 - octagon hot path: incremental strong closure                  *)
(* ------------------------------------------------------------------ *)

(* octagon-heavy cascade workload shared by E12 and E13 *)
let cascade_source ~stages ~width =
    let buf = Buffer.create 8192 in
    for s = 0 to stages - 1 do
      Buffer.add_string buf (Fmt.str "volatile float u%d;\n" s);
      for v = 0 to width - 1 do
        Buffer.add_string buf (Fmt.str "float x%d_%d;\n" s v)
      done;
      (* output registers: o is scaled so the conversion overflows (one
         deterministic alarm per stage), p is safely scaled (no alarm);
         all constants dyadic so every abstract bound is exact in float
         and alarm messages compare bit for bit across binaries *)
      Buffer.add_string buf (Fmt.str "short o%d;\nshort p%d;\n" s s)
    done;
    for s = 0 to stages - 1 do
      Buffer.add_string buf (Fmt.str "void stage%d(void) {\n" s);
      Buffer.add_string buf (Fmt.str "  x%d_0 = u%d;\n" s s);
      for v = 1 to width - 1 do
        Buffer.add_string buf
          (Fmt.str "  x%d_%d = 0.5f * x%d_%d + 0.5f * x%d_%d;\n" s v s v s
             (v - 1));
        Buffer.add_string buf
          (Fmt.str
             "  if (x%d_%d - x%d_%d > 0.25f) { x%d_%d = x%d_%d + 0.25f; }\n"
             s v s (v - 1) s v s (v - 1))
      done;
      Buffer.add_string buf
        (Fmt.str "  o%d = (short)(x%d_%d * 65536.0f);\n" s s (width - 1));
      Buffer.add_string buf
        (Fmt.str "  p%d = (short)(x%d_%d * 128.0f);\n" s s (width - 1));
      Buffer.add_string buf "}\n"
    done;
    Buffer.add_string buf "int main(void) {\n";
    for s = 0 to stages - 1 do
      Buffer.add_string buf
        (Fmt.str "  __astree_input_range(u%d, -1.0, 1.0);\n" s);
      for v = 0 to width - 1 do
        Buffer.add_string buf (Fmt.str "  x%d_%d = 0.0f;\n" s v)
      done
    done;
    Buffer.add_string buf "  while (1) {\n";
    for s = 0 to stages - 1 do
      Buffer.add_string buf (Fmt.str "    stage%d();\n" s)
    done;
    Buffer.add_string buf
      "    __astree_wait_for_clock();\n  }\n  return 0;\n}\n";
    Buffer.contents buf

let e12 ~quick () =
  section
    "E12: octagon hot path - flat DBMs, closure-state tracking and\n\
     incremental strong closure\n\
     measured: total-analysis speedup on an octagon-heavy workload vs\n\
     the pre-overhaul cost model (every closure request re-runs the\n\
     full cubic pass); claims checked: identical alarms; -j 4 and\n\
     cache cold/warm fingerprints identical to the -j 1 baseline";
  (* deep relational workload: per stage function, a cascade of
     rate-limited first-order lags.  Every tap is linearly coupled to
     its predecessor, so packing puts the whole cascade in one wide
     octagon pack; strong closure is Theta(n^3) per call, which is the
     regime the overhaul targets. *)
  let stages, width = if quick then (6, 8) else (16, 10) in
  let src = cascade_source ~stages ~width in
  let n_lines =
    List.length (String.split_on_char '\n' src)
  in
  let cfg = { C.Config.default with C.Config.max_octagon_pack = width } in
  let p, _ = C.Analysis.compile [ ("e12.c", src) ] in
  (let widths = Hashtbl.create 8 in
   List.iter
     (fun op ->
       let w = Array.length op.C.Packing.op_vars in
       Hashtbl.replace widths w
         (1 + Option.value ~default:0 (Hashtbl.find_opt widths w)))
     (C.Packing.compute cfg p).C.Packing.octs;
   let l = Hashtbl.fold (fun w n acc -> (w, n) :: acc) widths [] in
   Fmt.pr "pack widths (count x width): %a@."
     Fmt.(list ~sep:sp (pair ~sep:(any "x") int int))
     (List.sort compare (List.map (fun (w, n) -> (n, w)) l)));
  let count k = O.Metrics.value (O.Metrics.counter k) in
  let counters () =
    (count "oct.close.full", count "oct.close.incr", count "oct.close.skip")
  in
  let reset () =
    List.iter O.Metrics.reset_named
      [ "oct.close.full"; "oct.close.incr"; "oct.close.skip" ]
  in
  (* A/B inside one binary: [force_full_close] restores the pre-overhaul
     cost model (the algorithms are equivalent, see test_octagon.ml, so
     only the work per closure request changes) *)
  D.Octagon.force_full_close := true;
  reset ();
  let r_full, t_full = time (fun () -> C.Analysis.analyze ~cfg p) in
  let ff, fi, fs = counters () in
  D.Octagon.force_full_close := false;
  reset ();
  let r_incr, t_incr = time (fun () -> C.Analysis.analyze ~cfg p) in
  let nf, ni, ns = counters () in
  let speedup = t_full /. Float.max t_incr 1e-9 in
  let alarms_same = r_full.C.Analysis.r_alarms = r_incr.C.Analysis.r_alarms in
  Fmt.pr "workload: %d lines, %d stages of a %d-tap cascade, %d octagon packs, %d alarms@."
    n_lines stages width r_incr.C.Analysis.r_stats.C.Analysis.s_oct_packs
    (C.Analysis.n_alarms r_incr);
  Fmt.pr "%-22s %10s %9s   %s@." "closure strategy" "time(s)" "speedup"
    "closures full/incr/skipped";
  Fmt.pr "%-22s %10.2f %9s   %d / %d / %d@." "full (pre-overhaul)" t_full
    "1.00x" ff fi fs;
  Fmt.pr "%-22s %10.2f %8.2fx   %d / %d / %d@." "incremental" t_incr speedup
    nf ni ns;
  Fmt.pr "identical alarms: %b   incremental speedup: %.2fx@." alarms_same
    speedup;
  (* determinism matrix: -j 4 and cache cold/warm must reproduce the
     -j 1 cache-off fingerprint bit for bit *)
  let f1 = P.Merge.fingerprint r_incr in
  let r_j4 = C.Analysis.analyze ~cfg:{ cfg with C.Config.jobs = 4 } p in
  let j4_same = P.Merge.fingerprint r_j4 = f1 in
  Fmt.pr "-j 4 fingerprint identical to -j 1: %b@." j4_same;
  I.Summary.register ();
  let dir = Filename.temp_file "astree-e12" "" in
  Sys.remove dir;
  let cold_same, warm_same =
    Fun.protect
      ~finally:(fun () ->
        C.Analysis.cache_driver := None;
        if Sys.file_exists dir then begin
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Sys.rmdir dir
        end)
      (fun () ->
        let ccfg =
          { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
        in
        let r_cold = C.Analysis.analyze ~cfg:ccfg p in
        let r_warm = C.Analysis.analyze ~cfg:ccfg p in
        (P.Merge.fingerprint r_cold = f1, P.Merge.fingerprint r_warm = f1))
  in
  Fmt.pr "cache cold fingerprint identical: %b@." cold_same;
  Fmt.pr "cache warm fingerprint identical: %b@." warm_same;
  json_record "e12"
    (Printf.sprintf
       "{\"quick\": %b, \"lines\": %d, \"octagon_packs\": %d, \
        \"alarms\": %d, \"t_full_close\": %.6f, \"t_incremental\": %.6f, \
        \"speedup\": %.3f, \
        \"alarms_identical\": %b, \"j4_identical\": %b, \
        \"cache_cold_identical\": %b, \"cache_warm_identical\": %b, \
        \"closures_full\": %d, \"closures_incremental\": %d, \
        \"closures_skipped\": %d}"
       quick n_lines
       r_incr.C.Analysis.r_stats.C.Analysis.s_oct_packs
       (C.Analysis.n_alarms r_incr)
       t_full t_incr speedup alarms_same j4_same cold_same
       warm_same nf ni ns)

(* ------------------------------------------------------------------ *)
(* E13 - resource governor: tick overhead and forced degradation       *)
(* ------------------------------------------------------------------ *)

let e13 ~quick () =
  section
    "E13: resource governor - budget-tick overhead and degradation\n\
     claims checked: an armed governor that never trips costs <= 2%\n\
     on the E12 workload and leaves the result bit-identical; an\n\
     undersized budget degrades (never aborts) and the degraded run's\n\
     alarms cover the full run's";
  let stages, width = if quick then (6, 8) else (16, 10) in
  let src = cascade_source ~stages ~width in
  let cfg = { C.Config.default with C.Config.max_octagon_pack = width } in
  let p, _ = C.Analysis.compile [ ("e13.c", src) ] in
  let best_of n f =
    let best = ref infinity in
    let r = ref None in
    for _ = 1 to n do
      let v, t = time f in
      if t < !best then best := t;
      r := Some v
    done;
    (Option.get !r, !best)
  in
  (* A/B in one binary: same analysis, hook disarmed vs armed with a
     budget so large it never trips - only the tick cost differs *)
  let r_base, t_base = best_of 3 (fun () -> C.Analysis.analyze ~cfg p) in
  let gcfg = { cfg with C.Config.timeout = 3600. } in
  let r_gov, t_gov = best_of 3 (fun () -> R.Degrade.analyze ~cfg:gcfg p) in
  let overhead = (t_gov -. t_base) /. Float.max t_base 1e-9 in
  let identical = P.Merge.fingerprint r_gov = P.Merge.fingerprint r_base in
  let never_tripped = r_gov.C.Analysis.r_stats.C.Analysis.s_degraded = None in
  Fmt.pr "%-28s %10s@." "governor" "time(s)";
  Fmt.pr "%-28s %10.2f@." "disarmed (plain analyze)" t_base;
  Fmt.pr "%-28s %10.2f@." "armed, budget never trips" t_gov;
  Fmt.pr "tick overhead: %.2f%%   <= 2%%: %b   fingerprint identical: %b@."
    (100. *. overhead) (overhead <= 0.02) identical;
  (* undersized budget: the ladder sheds precision instead of aborting *)
  let budget = Float.max 0.02 (t_base /. 8.) in
  let dcfg = { cfg with C.Config.timeout = budget } in
  let r_deg, t_deg = time (fun () -> R.Degrade.analyze ~cfg:dcfg p) in
  let alarm_key (a : C.Alarm.t) = (a.C.Alarm.a_kind, a.C.Alarm.a_loc) in
  let superset =
    List.for_all
      (fun a ->
        List.exists
          (fun b -> alarm_key a = alarm_key b)
          r_deg.C.Analysis.r_alarms)
      r_base.C.Analysis.r_alarms
  in
  (match r_deg.C.Analysis.r_stats.C.Analysis.s_degraded with
  | Some d ->
      Fmt.pr
        "budget %.2fs: degraded level %d (%s), %.2fs wall, shed %d octagon \
         packs, alarms superset of full run: %b@."
        budget d.C.Analysis.dg_level d.C.Analysis.dg_reason t_deg
        d.C.Analysis.dg_shed_oct_packs superset
  | None ->
      Fmt.pr "budget %.2fs: finished without degrading (%.2fs wall)@." budget
        t_deg);
  json_record "e13"
    (Printf.sprintf
       "{\"quick\": %b, \"t_disarmed\": %.6f, \"t_armed\": %.6f, \
        \"tick_overhead\": %.5f, \"overhead_le_2pct\": %b, \
        \"fingerprint_identical\": %b, \"armed_never_tripped\": %b, \
        \"degraded\": %b, \"degraded_level\": %d, \
        \"degraded_superset\": %b}"
       quick t_base t_gov overhead (overhead <= 0.02) identical never_tripped
       (r_deg.C.Analysis.r_stats.C.Analysis.s_degraded <> None)
       (match r_deg.C.Analysis.r_stats.C.Analysis.s_degraded with
       | Some d -> d.C.Analysis.dg_level
       | None -> 0)
       superset)


(* ------------------------------------------------------------------ *)
(* E14 - observability: tracing/metrics overhead                        *)
(* ------------------------------------------------------------------ *)

let e14 ~quick () =
  section
    "E14: observability - event tracing and metrics overhead\n\
     claims checked: full tracing to a file plus metric timers cost\n\
     <= 10% on the E12 workload with a bit-identical fingerprint;\n\
     the disabled path (the shipping default) costs <= 1%, bounded by\n\
     a microbenchmark of the emission-site guard";
  let stages, width = if quick then (6, 8) else (16, 10) in
  let src = cascade_source ~stages ~width in
  let cfg = { C.Config.default with C.Config.max_octagon_pack = width } in
  let p, _ = C.Analysis.compile [ ("e14.c", src) ] in
  let best_of n f =
    let best = ref infinity in
    let r = ref None in
    for _ = 1 to n do
      let v, t = time f in
      if t < !best then best := t;
      r := Some v
    done;
    (Option.get !r, !best)
  in
  ignore (best_of 1 (fun () -> C.Analysis.analyze ~cfg p)) (* warmup *);
  (* A/B interleaved — the pairs alternate so slow drift of the machine
     (frequency scaling, co-tenants) hits both sides equally, and each
     side keeps its best.  Baseline = observability off, identical to
     what every run before this subsystem existed paid (counters are
     plain field increments and already part of the baseline);
     enabled = every event serialized to a real file plus timers
     reading the clock, the worst case a user can switch on. *)
  let tmp = Filename.temp_file "astree-e14" ".trace" in
  let run_obs () =
    O.Metrics.timing := true;
    O.Trace.enabled := true;
    let oc = open_out tmp in
    O.Trace.set_sink oc;
    Fun.protect
      ~finally:(fun () ->
        O.Trace.close ();
        close_out oc;
        O.Trace.enabled := false;
        O.Metrics.timing := false)
      (fun () -> C.Analysis.analyze ~cfg p)
  in
  let reps = 7 in
  let t_base = ref infinity and t_obs = ref infinity in
  let r_base = ref None and r_obs = ref None in
  let ratios = ref [] in
  for _ = 1 to reps do
    Gc.compact ();
    let rb, tb = time (fun () -> C.Analysis.analyze ~cfg p) in
    if tb < !t_base then t_base := tb;
    r_base := Some rb;
    Gc.compact ();
    let ro, to_ = time run_obs in
    if to_ < !t_obs then t_obs := to_;
    r_obs := Some ro;
    ratios := (to_ /. Float.max tb 1e-9) :: !ratios
  done;
  let r_base = Option.get !r_base and t_base = !t_base in
  let r_obs = Option.get !r_obs and t_obs = !t_obs in
  (* overhead = median of the per-pair enabled/disabled ratios: within a
     pair the two runs are adjacent in time so machine drift cancels,
     and the median discards pairs hit by a stray GC or co-tenant. *)
  let median_ratio =
    let a = Array.of_list !ratios in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let n_events =
    let ic = open_in tmp in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n
  in
  Sys.remove tmp;
  let overhead = median_ratio -. 1. in
  let identical = P.Merge.fingerprint r_obs = P.Merge.fingerprint r_base in
  (* disabled-path bound: time the guard every emission site pays when
     tracing is off (one ref read + branch), then charge it once per
     event the enabled run emitted.  [opaque_identity] keeps the read
     inside the loop. *)
  let guard_ns =
    let n = 20_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      if !(Sys.opaque_identity O.Trace.enabled) then O.Trace.emit "never"
    done;
    (Unix.gettimeofday () -. t0) /. float n *. 1e9
  in
  let disabled_est =
    guard_ns *. 1e-9 *. float n_events /. Float.max t_base 1e-9
  in
  Fmt.pr "%-34s %10s@." "observability" "time(s)";
  Fmt.pr "%-34s %10.2f@." "off (shipping default)" t_base;
  Fmt.pr "%-34s %10.2f@." "tracing to file + metric timers" t_obs;
  Fmt.pr
    "enabled overhead: %.2f%%   <= 10%%: %b   fingerprint identical: %b@."
    (100. *. overhead) (overhead <= 0.10) identical;
  Fmt.pr
    "trace: %d events; disabled guard: %.2f ns/site -> estimated \
     disabled-path cost %.4f%%   <= 1%%: %b@."
    n_events guard_ns (100. *. disabled_est) (disabled_est <= 0.01);
  json_record "e14"
    (Printf.sprintf
       "{\"quick\": %b, \"t_disabled\": %.6f, \"t_enabled\": %.6f, \
        \"enabled_overhead\": %.5f, \"overhead_le_10pct\": %b, \
        \"fingerprint_identical\": %b, \"trace_events\": %d, \
        \"guard_ns\": %.3f, \"disabled_overhead_est\": %.6f, \
        \"disabled_le_1pct\": %b}"
       quick t_base t_obs overhead (overhead <= 0.10) identical n_events
       guard_ns disabled_est (disabled_est <= 0.01))

(* ------------------------------------------------------------------ *)
(* E15: analysis server - warm throughput and latency under load       *)
(* ------------------------------------------------------------------ *)

let e15 ~quick () =
  section
    "E15: astreed - long-lived analysis server under load\n\
     claims checked: a warm daemon (resident typed IR + summaries)\n\
     sustains >= 2x the request throughput of cold one-shot processes\n\
     on the same workload; request latency p50/p99 at 1, 4 and 8\n\
     concurrent clients; every reply carries the one-shot result\n\
     fingerprint at every concurrency level";
  (* width 16 keeps every stage function above [memo_min_stmts], so the
     summary machinery engages exactly as it does on real-size code —
     the whole point of a warm daemon is re-serving those summaries *)
  let stages, width = if quick then (4, 16) else (8, 16) in
  let n_cold = if quick then 4 else 6 in
  let per_client = if quick then 6 else 10 in
  let src = cascade_source ~stages ~width in
  let sources = [ ("e15.c", src) ] in
  let options = Srv.Service.default_options in
  (* the reference result every reply must reproduce *)
  let expected_fp =
    let cfg = Srv.Service.config_of options ~sources in
    let p, _ = C.Analysis.compile ~main:"main" sources in
    P.Merge.fingerprint (R.Degrade.analyze ~cfg p)
  in
  let fp_marker = "\"fingerprint\": \"" in
  let report_fp report =
    let mlen = String.length fp_marker in
    let n = String.length report in
    let rec find i =
      if i + mlen > n then None
      else if String.sub report i mlen = fp_marker then
        let j = String.index_from report (i + mlen) '"' in
        Some (String.sub report (i + mlen) (j - (i + mlen)))
      else find (i + 1)
    in
    find 0
  in
  (* cold baseline: one fresh process per request, exactly what a CI
     loop of one-shot [astree] invocations pays (minus exec, which only
     favors the daemon further) *)
  let cold_once () =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        let code =
          try
            let cfg = Srv.Service.config_of options ~sources in
            let p, _ = C.Analysis.compile ~main:"main" sources in
            if P.Merge.fingerprint (R.Degrade.analyze ~cfg p) = expected_fp
            then 0
            else 1
          with _ -> 1
        in
        Unix._exit code
    | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "cold one-shot failed")
  in
  cold_once () (* page in the binary before timing *);
  let (), t_cold = time (fun () -> for _ = 1 to n_cold do cold_once () done) in
  let cold_tp = float n_cold /. t_cold in
  (* the daemon under test *)
  let sock = Filename.temp_file "astree-e15" ".sock" in
  Sys.remove sock;
  flush stdout;
  flush stderr;
  let daemon_pid =
    match Unix.fork () with
    | 0 ->
        let code =
          try
            Srv.Daemon.run
              {
                Srv.Daemon.default with
                Srv.Daemon.d_socket = sock;
                d_workers = 4;
                d_queue_depth = 64;
              }
          with _ -> 1
        in
        Unix._exit code
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill daemon_pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] daemon_pid);
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      let rec wait_up n =
        if n = 0 then failwith "daemon did not come up"
        else
          match Srv.Client.try_connect sock with
          | Some fd -> Srv.Client.close fd
          | None ->
              Unix.sleepf 0.05;
              wait_up (n - 1)
      in
      wait_up 100;
      let request () =
        match Srv.Client.try_connect sock with
        | None -> failwith "daemon gone"
        | Some fd ->
            Fun.protect
              ~finally:(fun () -> Srv.Client.close fd)
              (fun () ->
                match
                  Srv.Client.roundtrip fd
                    (Srv.Client.analyze_request ~sources ~main:"main"
                       ~options ())
                with
                | Error e -> failwith ("protocol: " ^ e)
                | Ok line ->
                    let rep = Srv.Client.decode line in
                    if rep.Srv.Client.r_status <> "ok" then
                      failwith ("daemon replied " ^ rep.Srv.Client.r_status);
                    (match rep.Srv.Client.r_report with
                    | Some rpt -> report_fp rpt = Some expected_fp
                    | None -> false))
      in
      ignore (request ()) (* warm the resident caches before timing *);
      (* one client process per connection: [clients] of them issue
         [per_client] sequential requests each; per-request latencies
         come back over a pipe *)
      let run_level clients =
        let spawn () =
          let rd, wr = Unix.pipe () in
          flush stdout;
          flush stderr;
          match Unix.fork () with
          | 0 ->
              Unix.close rd;
              let code =
                try
                  let lats = Array.make per_client 0. in
                  let ok = ref true in
                  for i = 0 to per_client - 1 do
                    let fp_ok, dt = time request in
                    lats.(i) <- dt;
                    ok := !ok && fp_ok
                  done;
                  let oc = Unix.out_channel_of_descr wr in
                  Marshal.to_channel oc (lats, !ok) [];
                  close_out oc;
                  0
                with _ -> 1
              in
              Unix._exit code
          | pid ->
              Unix.close wr;
              (pid, rd)
        in
        let procs = List.init clients (fun _ -> spawn ()) in
        let (results : (float array * bool) list), wall =
          time (fun () ->
              List.map
                (fun (pid, rd) ->
                  let ic = Unix.in_channel_of_descr rd in
                  let v = Marshal.from_channel ic in
                  close_in ic;
                  (match Unix.waitpid [] pid with
                  | _, Unix.WEXITED 0 -> ()
                  | _ -> failwith "client process failed");
                  v)
                procs)
        in
        let lats =
          Array.concat (List.map fst results)
        in
        Array.sort compare lats;
        let pct p =
          lats.(min
                  (Array.length lats - 1)
                  (int_of_float (p /. 100. *. float (Array.length lats))))
        in
        let fp_ok = List.for_all snd results in
        ( float (clients * per_client) /. wall,
          pct 50.,
          pct 99.,
          fp_ok )
      in
      let levels = List.map (fun c -> (c, run_level c)) [ 1; 4; 8 ] in
      let warm_tp_1 =
        match levels with (_, (tp, _, _, _)) :: _ -> tp | [] -> 0.
      in
      let all_fp_ok =
        List.for_all (fun (_, (_, _, _, ok)) -> ok) levels
      in
      let speedup = warm_tp_1 /. cold_tp in
      Fmt.pr "%-34s %12s %10s %10s@." "configuration" "req/s" "p50(s)"
        "p99(s)";
      Fmt.pr "%-34s %12.2f %10s %10s@." "cold one-shot (fresh process)"
        cold_tp "-" "-";
      List.iter
        (fun (c, (tp, p50, p99, _)) ->
          Fmt.pr "%-34s %12.2f %10.3f %10.3f@."
            (Fmt.str "warm daemon, %d client%s" c
               (if c = 1 then "" else "s"))
            tp p50 p99)
        levels;
      Fmt.pr
        "warm/cold throughput: %.2fx   >= 2x: %b   fingerprints identical \
         at every level: %b@."
        speedup (speedup >= 2.) all_fp_ok;
      let level_json =
        String.concat ", "
          (List.map
             (fun (c, (tp, p50, p99, ok)) ->
               Printf.sprintf
                 "{\"clients\": %d, \"req_per_s\": %.3f, \"p50_s\": %.4f, \
                  \"p99_s\": %.4f, \"fingerprints_ok\": %b}"
                 c tp p50 p99 ok)
             levels)
      in
      json_record "e15"
        (Printf.sprintf
           "{\"quick\": %b, \"cold_req_per_s\": %.3f, \"warm_req_per_s\": \
            %.3f, \"speedup\": %.3f, \"speedup_ge_2x\": %b, \
            \"fingerprints_ok\": %b, \"levels\": [%s]}"
           quick cold_tp warm_tp_1 speedup (speedup >= 2.) all_fp_ok
           level_json))

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
(* E18 - operational telemetry: overhead, scrape, readiness             *)
(* ------------------------------------------------------------------ *)

let e18 ~quick () =
  section
    "E18: operational telemetry (lib/server/telemetry + http)\n\
     claims checked: full telemetry (JSONL access log + HTTP exposition\n\
     endpoint) costs <= 5% of warm-daemon throughput on the E15 cascade\n\
     workload; reports stay byte-identical with telemetry on and off;\n\
     GET /metrics yields well-formed Prometheus text exposition; /readyz\n\
     answers 503 while a SIGTERM drain is in progress";
  let stages, width = if quick then (4, 16) else (8, 16) in
  let clients = 4 in
  let per_client = if quick then 6 else 10 in
  let src = cascade_source ~stages ~width in
  let sources = [ ("e18.c", src) ] in
  let options = Srv.Service.default_options in
  let port =
    let n = ref 0 in
    fun () ->
      incr n;
      18000 + (((Unix.getpid () * 131) + (!n * 977)) mod 30000)
  in
  (* blank the volatile "time" statistic; everything else must be
     byte-identical between the two daemons *)
  let scrub_time (s : string) : string =
    let marker = "\"time\": " in
    let mlen = String.length marker in
    let n = String.length s in
    let b = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      if !i + mlen <= n && String.sub s !i mlen = marker then begin
        Buffer.add_string b marker;
        Buffer.add_char b 'T';
        i := !i + mlen;
        while
          !i < n
          &&
          match s.[!i] with
          | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
          | _ -> false
        do
          incr i
        done
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  let http_get port path : int * string =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let req = "GET " ^ path ^ " HTTP/1.0\r\n\r\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 8192 in
        let chunk = Bytes.create 65536 in
        let rec drain () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        in
        drain ();
        let raw = Buffer.contents buf in
        let code =
          try Scanf.sscanf raw "HTTP/1.0 %d" (fun c -> c) with _ -> -1
        in
        let body =
          let rec find i =
            if i + 4 > String.length raw then String.length raw
            else if String.sub raw i 4 = "\r\n\r\n" then i + 4
            else find (i + 1)
          in
          let start = find 0 in
          String.sub raw start (String.length raw - start)
        in
        (code, body))
  in
  let rec http_get_retry ?(n = 40) p path =
    match http_get p path with
    | r -> r
    | exception Unix.Unix_error _ when n > 0 ->
        Unix.sleepf 0.05;
        http_get_retry ~n:(n - 1) p path
  in
  let start_daemon ?http_port ?access_log ?(workers = 4) ?(hang = 0.)
      sock =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        let code =
          try
            if hang > 0. then begin
              R.Faultsim.hang_seconds := hang;
              R.Faultsim.install ~seed:1 [ (R.Faultsim.Worker_hang, 1.0) ]
            end;
            Srv.Daemon.run
              {
                Srv.Daemon.default with
                Srv.Daemon.d_socket = sock;
                d_workers = workers;
                d_queue_depth = 64;
                d_http_port = http_port;
                d_access_log = access_log;
              }
          with _ -> 1
        in
        Unix._exit code
    | pid -> pid
  in
  let wait_up sock =
    let rec go n =
      if n = 0 then failwith "daemon did not come up"
      else
        match Srv.Client.try_connect sock with
        | Some fd -> Srv.Client.close fd
        | None ->
            Unix.sleepf 0.05;
            go (n - 1)
    in
    go 100
  in
  let stop pid sock =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    if Sys.file_exists sock then Sys.remove sock
  in
  let request sock : string =
    match Srv.Client.try_connect sock with
    | None -> failwith "daemon gone"
    | Some fd ->
        Fun.protect
          ~finally:(fun () -> Srv.Client.close fd)
          (fun () ->
            match
              Srv.Client.roundtrip fd
                (Srv.Client.analyze_request ~sources ~main:"main" ~options ())
            with
            | Error e -> failwith ("protocol: " ^ e)
            | Ok line ->
                let rep = Srv.Client.decode line in
                if rep.Srv.Client.r_status <> "ok" then
                  failwith ("daemon replied " ^ rep.Srv.Client.r_status);
                (match rep.Srv.Client.r_report with
                | Some rpt -> rpt
                | None -> failwith "daemon reply without report"))
  in
  (* [clients] concurrent client processes, [per_client] sequential
     requests each, against a pre-warmed daemon: requests per second *)
  let run_load sock : float =
    let spawn () =
      flush stdout;
      flush stderr;
      match Unix.fork () with
      | 0 ->
          let code =
            try
              for _ = 1 to per_client do
                ignore (request sock)
              done;
              0
            with _ -> 1
          in
          Unix._exit code
      | pid -> pid
    in
    let procs = List.init clients (fun _ -> spawn ()) in
    let (), wall =
      time (fun () ->
          List.iter
            (fun pid ->
              match Unix.waitpid [] pid with
              | _, Unix.WEXITED 0 -> ()
              | _ -> failwith "load client failed")
            procs)
    in
    float (clients * per_client) /. wall
  in
  (* two daemons side by side -- telemetry off and the full stack on --
     each warmed by one request (which also yields the report to diff).
     Load rounds alternate between the two and each side keeps its
     best, so machine-wide drift hits both alike instead of landing on
     whichever daemon happened to be measured second. *)
  let rounds = 3 in
  let http_p = port () in
  let log = Filename.temp_file "astree-e18" ".jsonl" in
  let tp_off, report_off, tp_on, report_on, scrape, log_requests =
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists log then Sys.remove log;
        if Sys.file_exists (log ^ ".1") then Sys.remove (log ^ ".1"))
      (fun () ->
        let sock_off = Filename.temp_file "astree-e18" ".sock" in
        Sys.remove sock_off;
        let sock_on = Filename.temp_file "astree-e18" ".sock" in
        Sys.remove sock_on;
        let pid_off = start_daemon sock_off in
        let pid_on =
          start_daemon ~http_port:http_p ~access_log:log sock_on
        in
        let tp_off, report_off, tp_on, report_on, scrape =
          Fun.protect
            ~finally:(fun () ->
              stop pid_off sock_off;
              stop pid_on sock_on)
            (fun () ->
              wait_up sock_off;
              wait_up sock_on;
              let report_off = request sock_off in
              let report_on = request sock_on in
              let tp_off = ref 0. and tp_on = ref 0. in
              for _ = 1 to rounds do
                tp_off := Float.max !tp_off (run_load sock_off);
                tp_on := Float.max !tp_on (run_load sock_on)
              done;
              let code, body = http_get_retry http_p "/metrics" in
              if code <> 200 then failwith "GET /metrics failed";
              (!tp_off, report_off, !tp_on, report_on, body))
        in
        (* on-daemon reaped: count the request lines it logged *)
        let ic = open_in log in
        let n = ref 0 in
        (try
           while true do
             let line = input_line ic in
             match Srv.Json.parse line with
             | Ok j
               when Srv.Json.to_str (Srv.Json.member "event" j)
                    = Some "request" ->
                 incr n
             | Ok _ -> ()
             | Error e -> failwith ("torn access-log line: " ^ e)
           done
         with End_of_file -> close_in ic);
        (tp_off, report_off, tp_on, report_on, scrape, !n))
  in
  let overhead_pct = 100. *. (1. -. (tp_on /. Float.max tp_off 1e-9)) in
  let overhead_ok = tp_on >= 0.95 *. tp_off in
  let reports_identical = scrub_time report_on = scrub_time report_off in
  (* well-formed exposition: every non-comment line is NAME[{labels}]
     VALUE with a float value, every family has a TYPE header, and the
     series the operators dashboard on are present *)
  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let scrape_ok =
    let lines = String.split_on_char '\n' scrape in
    List.for_all
      (fun l ->
        l = ""
        || (String.length l > 2 && String.sub l 0 2 = "# ")
        ||
        match String.index_opt l ' ' with
        | None -> false
        | Some i -> (
            let v = String.sub l (i + 1) (String.length l - i - 1) in
            v = "+Inf" || Float.of_string_opt v <> None))
      lines
    && has_sub scrape "# TYPE astreed_up gauge"
    && has_sub scrape "astreed_up 1"
    && has_sub scrape
         "astreed_requests_total{outcome=\"ok\",verb=\"analyze\"}"
    && has_sub scrape "astreed_request_duration_seconds_bucket{le=\"+Inf\""
    && has_sub scrape "astree_cache_hits_total"
  in
  let log_ok = log_requests >= 1 + (rounds * clients * per_client) in
  (* readiness during drain: a hung worker pins one request in flight,
     SIGTERM starts the drain, /readyz must flip to 503 while /healthz
     stays 200 *)
  let readyz_503 =
    let sock = Filename.temp_file "astree-e18" ".sock" in
    Sys.remove sock;
    let p = port () in
    let pid = start_daemon ~workers:1 ~http_port:p ~hang:1.2 sock in
    Fun.protect
      ~finally:(fun () -> stop pid sock)
      (fun () ->
        wait_up sock;
        let fd =
          match Srv.Client.try_connect sock with
          | Some fd -> fd
          | None -> failwith "daemon gone"
        in
        Fun.protect
          ~finally:(fun () -> Srv.Client.close fd)
          (fun () ->
            (match
               Srv.Client.send fd
                 (Srv.Client.analyze_request ~sources ~main:"main" ~options
                    ())
             with
            | Ok () -> ()
            | Error e -> failwith ("send: " ^ e));
            Unix.sleepf 0.2;
            let ready_before, _ = http_get_retry p "/readyz" in
            Unix.kill pid Sys.sigterm;
            Unix.sleepf 0.2;
            let ready_during, why = http_get_retry p "/readyz" in
            let live_during, _ = http_get_retry p "/healthz" in
            ready_before = 200 && ready_during = 503
            && has_sub why "draining" && live_during = 200))
  in
  Fmt.pr "%-38s %12s@." "configuration" "req/s";
  Fmt.pr "%-38s %12.2f@." "warm daemon, telemetry off" tp_off;
  Fmt.pr "%-38s %12.2f@." "warm daemon, access log + /metrics" tp_on;
  Fmt.pr "telemetry overhead: %.1f%%   <= 5%%: %b@." overhead_pct
    overhead_ok;
  Fmt.pr "reports byte-identical on/off: %b@." reports_identical;
  Fmt.pr "/metrics well-formed exposition: %b   access-log lines: %d \
          (complete: %b)@."
    scrape_ok log_requests log_ok;
  Fmt.pr "/readyz 503 during drain: %b@." readyz_503;
  json_record "e18"
    (Printf.sprintf
       "{\"quick\": %b, \"req_per_s_off\": %.3f, \"req_per_s_on\": %.3f, \
        \"overhead_pct\": %.2f, \"overhead_le_5pct\": %b, \
        \"reports_identical\": %b, \"metrics_wellformed\": %b, \
        \"access_log_requests\": %d, \"access_log_complete\": %b, \
        \"readyz_503_during_drain\": %b}"
       quick tp_off tp_on overhead_pct overhead_ok reports_identical
       scrape_ok log_requests log_ok readyz_503)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro-benchmarks (bechamel): analyzer kernels";
  let open Bechamel in
  let mkvar =
    let next = ref 9000 in
    fun name ->
      incr next;
      {
        F.Tast.v_id = !next;
        v_name = name;
        v_orig = name;
        v_ty = F.Ctypes.t_float;
        v_kind = F.Tast.Kglobal;
        v_volatile = false;
        v_loc = F.Loc.dummy;
      }
  in
  let pack = Array.init 4 (fun i -> mkvar (Fmt.str "v%d" i)) in
  let bench_close =
    Test.make ~name:"e1:octagon-close-4vars"
      (Staged.stage (fun () ->
           let o = D.Octagon.top pack in
           D.Octagon.set_bounds o pack.(0) (-1.0, 1.0);
           D.Octagon.add_sum_le o pack.(0) pack.(1) 2.0;
           D.Octagon.add_diff_le o pack.(2) pack.(3) 0.5;
           D.Octagon.close o))
  in
  let mk_env n =
    let clock = D.Itv.int_const 0 in
    let rec go i e =
      if i >= n then e
      else
        go (i + 1)
          (C.Env.set e i
             (C.Avalue.of_itv ~use_clocked:false ~clock (D.Itv.int_range 0 i)))
    in
    go 0 (C.Env.empty ~naive:false ~ncells:n)
  in
  let base_env = mk_env 1000 in
  let modified =
    let clock = D.Itv.int_const 0 in
    let rec go k e =
      if k >= 10 then e
      else
        go (k + 1)
          (C.Env.set e (k * 97)
             (C.Avalue.of_itv ~use_clocked:false ~clock (D.Itv.int_range 0 1)))
    in
    go 0 base_env
  in
  let bench_join_shared =
    Test.make ~name:"e5:env-join-shared-1000cells-10diff"
      (Staged.stage (fun () -> ignore (C.Env.join base_env modified)))
  in
  let bench_widen =
    Test.make ~name:"e6:interval-widen-thresholds"
      (Staged.stage (fun () ->
           ignore
             (D.Itv.widen ~thresholds:D.Thresholds.default
                (D.Itv.float_range 0.0 10.0)
                (D.Itv.float_range 0.0 12.0))))
  in
  let ell =
    D.Ellipsoid.make ~a:1.5 ~b:0.7 ~fkind:F.Ctypes.Fsingle
      [| mkvar "x"; mkvar "y"; mkvar "z" |]
  in
  let bench_delta =
    Test.make ~name:"e9:ellipsoid-delta"
      (Staged.stage (fun () -> ignore (D.Ellipsoid.delta ell ~t_max:1.0 37.5)))
  in
  let small = G.Generator.member ~kloc:0.08 () in
  let bench_analysis =
    Test.make ~name:"e2:analyze-80-line-member"
      (Staged.stage (fun () -> ignore (analyze small)))
  in
  let tests =
    Test.make_grouped ~name:"astree"
      [ bench_close; bench_join_shared; bench_widen; bench_delta;
        bench_analysis ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false
         ~predictors:[| Measure.run |])
      instance raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Fmt.pr "%-44s %14.1f ns/run@." name est
      | _ -> Fmt.pr "%-44s (no estimate)@." name)
    ols

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
  if want "e10" then e10 ~quick ();
  if want "e11" then e11 ();
  if want "e12" then e12 ~quick ();
  if want "e13" then e13 ~quick ();
  if want "e14" then e14 ~quick ();
  if want "e15" then e15 ~quick ();
  if want "e16" then e16 ~quick ();
  if want "e18" then e18 ~quick ();
  if want "micro" then micro ();
  (match json_path with Some path -> json_write path | None -> ());
  Fmt.pr "@.done.@."
