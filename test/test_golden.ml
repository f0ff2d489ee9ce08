(* Golden results: a committed table of result fingerprints
   ([Merge.fingerprint]: alarms, main-loop census and final-state dump)
   and alarm counts, per program and per analyzer configuration, plus a
   few summary-cache entry digests.  Any change to the abstract
   semantics, the dump order or the key encoding shows up here; a
   refactoring of the domain plumbing must leave every entry as it is.
   On a mismatch the failure message prints the whole recomputed table
   in the syntax below. *)

module C = Astree_core
module F = Astree_frontend
module G = Astree_gen
module I = Astree_incremental
module P = Astree_parallel
module R = Astree_robust

(* tests run from the dune sandbox; walk up to the repository root *)
let read_example name =
  let rec find dir depth =
    let cand = Filename.concat dir (Filename.concat "examples/data" name) in
    if Sys.file_exists cand then cand
    else if depth = 0 then Alcotest.failf "examples/data/%s not found" name
    else find (Filename.dirname dir) (depth - 1)
  in
  let path = find (Sys.getcwd ()) 6 in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* (row name, source, functions of its partition markers) *)
let rows : (string * string * string list) list Lazy.t =
  lazy
    (let example name =
       let src = read_example name in
       (name, src, F.Preproc.partition_markers src)
     in
     let member name ~seed ~bugs =
       let g =
         G.Generator.generate
           {
             G.Generator.seed;
             target_lines = 600;
             mix = G.Shapes.all_safe_kinds;
             bug_ratio = bugs;
             fuse = 1;
           }
       in
       (name, g.G.Generator.source, g.G.Generator.partition_fns)
     in
     List.map example [ "buggy_demo.c"; "filter_bank.c"; "mini_fbw.c" ]
     @ [
         member "gen-s11" ~seed:11 ~bugs:0.0;
         member "gen-s12-bugs" ~seed:12 ~bugs:0.5;
       ])

(* The columns: the seven refinement steps of experiment E2, the three
   degradation-ladder steps, and the default with one relational domain
   off. *)
let columns (partition : string list) : (string * C.Config.t) list =
  let base = C.Config.default and bl = C.Config.baseline in
  [
    ("e2-intervals", C.Config.intervals_only);
    ("e2-baseline", bl);
    ("e2-lin", { bl with C.Config.use_linearization = true });
    ( "e2-oct",
      { bl with C.Config.use_linearization = true; use_octagons = true } );
    ( "e2-ell",
      {
        bl with
        C.Config.use_linearization = true;
        use_octagons = true;
        use_ellipsoids = true;
      } );
    ("e2-dt", base);
    ("e2-part", { base with C.Config.partitioned_functions = partition });
  ]
  @ List.map
      (fun level ->
        (Fmt.str "degrade-%d" level, R.Degrade.config_at ~level base))
      [ 1; 2; 3 ]
  @ [
      ("no-oct", { base with C.Config.use_octagons = false });
      ("no-ell", { base with C.Config.use_ellipsoids = false });
      ("no-dt", { base with C.Config.use_decision_trees = false });
    ]

let analyze cfg src =
  let p, _ = C.Analysis.compile [ ("golden.c", src) ] in
  C.Analysis.analyze ~cfg p

(* (row, column, fingerprint, alarms) at the behaviour this table was
   committed at *)
let expected_results : (string * string * string * int) list =
  [
  ("buggy_demo.c", "e2-intervals", "d8ff98600a1210edd3f1da4a4498cf5c", 4);
  ("buggy_demo.c", "e2-baseline", "eeb82a9106e38db68c0824d9dc4498a4", 4);
  ("buggy_demo.c", "e2-lin", "eeb82a9106e38db68c0824d9dc4498a4", 4);
  ("buggy_demo.c", "e2-oct", "e807e490fb9258b2ee8a9c140218585a", 4);
  ("buggy_demo.c", "e2-ell", "e807e490fb9258b2ee8a9c140218585a", 4);
  ("buggy_demo.c", "e2-dt", "e807e490fb9258b2ee8a9c140218585a", 4);
  ("buggy_demo.c", "e2-part", "e807e490fb9258b2ee8a9c140218585a", 4);
  ("buggy_demo.c", "degrade-1", "e807e490fb9258b2ee8a9c140218585a", 4);
  ("buggy_demo.c", "degrade-2", "e807e490fb9258b2ee8a9c140218585a", 4);
  ("buggy_demo.c", "degrade-3", "1ac40b935e4490f03b7c50ba9efcaa64", 4);
  ("buggy_demo.c", "no-oct", "eeb82a9106e38db68c0824d9dc4498a4", 4);
  ("buggy_demo.c", "no-ell", "e807e490fb9258b2ee8a9c140218585a", 4);
  ("buggy_demo.c", "no-dt", "e807e490fb9258b2ee8a9c140218585a", 4);
  ("filter_bank.c", "e2-intervals", "317f08d3a54bed8d8fc222009a7f8da1", 10);
  ("filter_bank.c", "e2-baseline", "eba41a491c26adab0cb631886a6ec905", 10);
  ("filter_bank.c", "e2-lin", "eba41a491c26adab0cb631886a6ec905", 10);
  ("filter_bank.c", "e2-oct", "e27f07fff0d5004becaced80415a0283", 10);
  ("filter_bank.c", "e2-ell", "a6595852c453e41056343269aaf27cd8", 0);
  ("filter_bank.c", "e2-dt", "a6595852c453e41056343269aaf27cd8", 0);
  ("filter_bank.c", "e2-part", "a6595852c453e41056343269aaf27cd8", 0);
  ("filter_bank.c", "degrade-1", "a8437c25df56f37919950ac3a706088d", 0);
  ("filter_bank.c", "degrade-2", "a8437c25df56f37919950ac3a706088d", 0);
  ("filter_bank.c", "degrade-3", "bdbf6273d1752d38856884746e537130", 10);
  ("filter_bank.c", "no-oct", "2e65e9ab88b7a62cfd108b33a884366d", 0);
  ("filter_bank.c", "no-ell", "e27f07fff0d5004becaced80415a0283", 10);
  ("filter_bank.c", "no-dt", "a6595852c453e41056343269aaf27cd8", 0);
  ("mini_fbw.c", "e2-intervals", "814598856d902b5bb5164880b5c1a556", 14);
  ("mini_fbw.c", "e2-baseline", "ec45c9e266e79cc9b48f4cfd383dcb40", 13);
  ("mini_fbw.c", "e2-lin", "ec45c9e266e79cc9b48f4cfd383dcb40", 13);
  ("mini_fbw.c", "e2-oct", "7423e0a89733cd370b6ec07a97712ca6", 11);
  ("mini_fbw.c", "e2-ell", "411aadcf0ba795d0c50aefe51de92220", 8);
  ("mini_fbw.c", "e2-dt", "08dcdef7b118cbd13f3e0000220eddf2", 7);
  ("mini_fbw.c", "e2-part", "322e7c3f1319a413e7a9e3718d04e9e1", 0);
  ("mini_fbw.c", "degrade-1", "0be23234c1a08f7c94832067ca20cae8", 9);
  ("mini_fbw.c", "degrade-2", "0be23234c1a08f7c94832067ca20cae8", 9);
  ("mini_fbw.c", "degrade-3", "e087706cf4f84d03e2454ab1ddc42f5a", 12);
  ("mini_fbw.c", "no-oct", "86960744fa2a6e53a05727f720264369", 9);
  ("mini_fbw.c", "no-ell", "ce37abffcbd12ba1e4659120c99319d1", 10);
  ("mini_fbw.c", "no-dt", "411aadcf0ba795d0c50aefe51de92220", 8);
  ("gen-s11", "e2-intervals", "c6c0a2b7a9d7f5928fe78d8c240a6f54", 55);
  ("gen-s11", "e2-baseline", "ff70143b8c943150b765874d37a7f7fb", 52);
  ("gen-s11", "e2-lin", "c9e88b1dc7ec44f0f9b9a0e48002174a", 40);
  ("gen-s11", "e2-oct", "8584f627ad30934174fb6dde96b3f221", 24);
  ("gen-s11", "e2-ell", "686425e28103eddf7872f40bedf5ae72", 14);
  ("gen-s11", "e2-dt", "fc35efc7088eae319b77e191de457f12", 6);
  ("gen-s11", "e2-part", "e2170d17a7a250f55736db7c52ab63b9", 0);
  ("gen-s11", "degrade-1", "09295a39003425869a9cc7be90a354f0", 22);
  ("gen-s11", "degrade-2", "09295a39003425869a9cc7be90a354f0", 22);
  ("gen-s11", "degrade-3", "02ae0bdd75c04dcfb8ffb28298f1b561", 38);
  ("gen-s11", "no-oct", "a3dc204516d0e9c43e5395a446e4eb02", 22);
  ("gen-s11", "no-ell", "3b1eb5529db1cc753038fa36fcc8e883", 16);
  ("gen-s11", "no-dt", "686425e28103eddf7872f40bedf5ae72", 14);
  ("gen-s12-bugs", "e2-intervals", "e643571306640ed2a76cdb65cb4c11d1", 87);
  ("gen-s12-bugs", "e2-baseline", "93f36f37cd33d89e9f744018c72c8229", 85);
  ("gen-s12-bugs", "e2-lin", "cea4f09b84464617c620d517f402d8f2", 77);
  ("gen-s12-bugs", "e2-oct", "2effb98e6799d62cfcf8fc71f5f85cc4", 65);
  ("gen-s12-bugs", "e2-ell", "b2f759b67c9388bc27633b9fff4f9eed", 63);
  ("gen-s12-bugs", "e2-dt", "a374aaf4fc5d3e067253e9af9ffe9868", 57);
  ("gen-s12-bugs", "e2-part", "93e478f7bcb9cf29dc5ead59d931d0d2", 55);
  ("gen-s12-bugs", "degrade-1", "a955bd29d29aea48318eb2333a6ce334", 69);
  ("gen-s12-bugs", "degrade-2", "a955bd29d29aea48318eb2333a6ce334", 69);
  ("gen-s12-bugs", "degrade-3", "08c1b6790e0b91fdfe4bf978ee16f2ad", 75);
  ("gen-s12-bugs", "no-oct", "a44dda9c1581e9cf21849eca7b3b3a78", 69);
  ("gen-s12-bugs", "no-ell", "b83acb59e91c37f671c11ab4fe6f12a6", 59);
  ("gen-s12-bugs", "no-dt", "b2f759b67c9388bc27633b9fff4f9eed", 63)
  ]

(* (row, state, entry digest) under the default configuration: the
   main-loop invariant of every row as a whole-program frame
   ([Summary.entry_digest]), and, for a fused member run with the
   in-memory summary cache, the number of distinct framed call-entry
   digests and the MD5 of their sorted list *)
let expected_digests : (string * string * string) list =
  [
  ("buggy_demo.c", "main-loop", "526a6435b2eff2a3720175ec3ef7075a");
  ("filter_bank.c", "main-loop", "af90cb034c684f87bba474b4f92741a6");
  ("mini_fbw.c", "main-loop", "0393ef8ffad46b80d13a61667e910dd1");
  ("gen-s11", "main-loop", "d2fa79fd30fe8d890dc3b4473c6466fb");
  ("gen-s12-bugs", "main-loop", "3f51b0a8426cae3ba68e5b7a10ac2aeb");
  ("gen-s4-fused", "call entries: 210", "e0dc4fbdbe2ddf76bcebebe68a1d7210")
  ]

let actual_results () =
  List.concat_map
    (fun (row, src, partition) ->
      List.map
        (fun (col, cfg) ->
          let r = analyze cfg src in
          (row, col, P.Merge.fingerprint r, C.Analysis.n_alarms r))
        (columns partition))
    (Lazy.force rows)

let actual_digests () =
  List.concat_map
    (fun (row, src, _) ->
      let r = analyze C.Config.default src in
      let digest st = I.Summary.entry_digest r.C.Analysis.r_actx st in
      Hashtbl.fold
        (fun id st acc -> (id, st) :: acc)
        r.C.Analysis.r_actx.C.Transfer.invariants []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> function
      | (_, st) :: _ -> [ (row, "main-loop", digest st) ]
      | [] -> [])
    (Lazy.force rows)
  @
  let g =
    G.Generator.generate
      { G.Generator.default with G.Generator.seed = 4; target_lines = 1200; fuse = 8 }
  in
  let p, _ = C.Analysis.compile [ ("fused.c", g.G.Generator.source) ] in
  (* the keys a cold run publishes to an empty store *)
  let dir = Filename.temp_dir "astree-golden" "" in
  let keys =
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir)
      (fun () ->
        I.Summary.register ();
        R.Faultsim.with_suppressed (fun () ->
            ignore
              (C.Analysis.analyze
                 ~cfg:
                   {
                     C.Config.default with
                     C.Config.summary_cache = C.Config.Cache_dir dir;
                   }
                 p);
            I.Store.keys (I.Store.open_ ~dir)))
  in
  let entries =
    List.map (fun k -> k.C.Transfer.sk_entry) keys
    |> List.sort_uniq String.compare
  in
  [
    ( "gen-s4-fused",
      Fmt.str "call entries: %d" (List.length entries),
      Digest.to_hex (Digest.string (String.concat "," entries)) );
  ]

(* The bug-injected 2 kLOC member of the one-shot benchmark (generator
   seed 3, one shape per function, bug ratio 0.05): its main loop runs 79
   body passes.  The clock settles at its first widening, while a few
   overflowing cells climb the threshold ladder.  (fingerprint, alarms,
   iter.body_passes) under the default configuration with the member's
   partition markers, as the command line reads them. *)
let expected_ladder = ("5eb179d35c376173e453b1c0f7b9a0a4", 10, 79)

let actual_ladder () =
  let g =
    G.Generator.generate
      {
        G.Generator.seed = 3;
        target_lines = 2000;
        mix = G.Shapes.all_safe_kinds;
        bug_ratio = 0.05;
        fuse = 1;
      }
  in
  let passes = Astree_obs.Metrics.counter "iter.body_passes" in
  let before = Astree_obs.Metrics.value passes in
  let src = g.G.Generator.source in
  let cfg =
    {
      C.Config.default with
      C.Config.partitioned_functions = F.Preproc.partition_markers src;
    }
  in
  let r = analyze cfg src in
  ( P.Merge.fingerprint r,
    C.Analysis.n_alarms r,
    Astree_obs.Metrics.value passes - before )

let check_table ~what pp expected actual =
  if expected <> actual then
    Alcotest.failf "%s differ from the golden table; recomputed:@.[@.%a]" what
      Fmt.(list ~sep:(any "@.") pp)
      actual

let test_results () =
  check_table ~what:"results"
    (fun ppf (row, col, fp, n) ->
      Fmt.pf ppf "  (%S, %S, %S, %d);" row col fp n)
    expected_results (actual_results ())

let test_digests () =
  check_table ~what:"entry digests"
    (fun ppf (row, st, d) -> Fmt.pf ppf "  (%S, %S, %S);" row st d)
    expected_digests (actual_digests ())

let test_ladder () =
  let fp, n, passes = actual_ladder () in
  Alcotest.(check (triple string int int))
    "fingerprint, alarms, body passes" expected_ladder (fp, n, passes)

let suite =
  [
    Alcotest.test_case "fingerprints and alarms per configuration" `Slow
      test_results;
    Alcotest.test_case "summary entry digests" `Quick test_digests;
    Alcotest.test_case "threshold-ladder member" `Slow test_ladder;
  ]
