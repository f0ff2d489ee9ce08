(* Test runner: all suites. *)

let () =
  Alcotest.run "astree"
    [
      ("float-utils", Test_float_utils.suite);
      ("itv", Test_itv.suite);
      ("clocked", Test_clocked.suite);
      ("linear-forms", Test_linform.suite);
      ("octagon", Test_octagon.suite);
      ("ellipsoid", Test_ellipsoid.suite);
      ("decision-tree", Test_dtree.suite);
      ("ptmap", Test_ptmap.suite);
      ("env", Test_env.suite);
      ("lattice", Test_lattice.suite);
      ("frontend", Test_frontend.suite);
      ("semantics", Test_semantics.suite);
      ("packing", Test_packing.suite);
      ("transfer", Test_transfer.suite);
      ("prewrite", Test_transfer.prewrite_suite);
      ("memo", Test_memo.suite);
      ("iterator", Test_iterator.suite);
      ("analysis", Test_analysis.suite);
      ("generator", Test_gen.suite);
      ("invariants", Test_invariants.suite);
      ("slicer", Test_slicer.suite);
      ("samples", Test_samples.suite);
      ("parallel", Test_parallel.suite);
      ("observability", Test_obs.suite);
      ("incremental", Test_incremental.suite);
      ("soundness", Test_soundness.suite);
      ("concurrency", Test_concurrency.suite);
      ("robust", Test_robust.suite);
      ("server", Test_server.suite);
      ("telemetry", Test_telemetry.suite);
      ("golden", Test_golden.suite);
    ]
