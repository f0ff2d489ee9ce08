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
  ("buggy_demo.c", "e2-oct", "443bbe86b42bcb8d199f969ff58b2792", 4);
  ("buggy_demo.c", "e2-ell", "443bbe86b42bcb8d199f969ff58b2792", 4);
  ("buggy_demo.c", "e2-dt", "443bbe86b42bcb8d199f969ff58b2792", 4);
  ("buggy_demo.c", "e2-part", "443bbe86b42bcb8d199f969ff58b2792", 4);
  ("buggy_demo.c", "degrade-1", "443bbe86b42bcb8d199f969ff58b2792", 4);
  ("buggy_demo.c", "degrade-2", "443bbe86b42bcb8d199f969ff58b2792", 4);
  ("buggy_demo.c", "degrade-3", "1ac40b935e4490f03b7c50ba9efcaa64", 4);
  ("buggy_demo.c", "no-oct", "eeb82a9106e38db68c0824d9dc4498a4", 4);
  ("buggy_demo.c", "no-ell", "443bbe86b42bcb8d199f969ff58b2792", 4);
  ("buggy_demo.c", "no-dt", "443bbe86b42bcb8d199f969ff58b2792", 4);
  ("filter_bank.c", "e2-intervals", "317f08d3a54bed8d8fc222009a7f8da1", 10);
  ("filter_bank.c", "e2-baseline", "eba41a491c26adab0cb631886a6ec905", 10);
  ("filter_bank.c", "e2-lin", "eba41a491c26adab0cb631886a6ec905", 10);
  ("filter_bank.c", "e2-oct", "e27f07fff0d5004becaced80415a0283", 10);
  ("filter_bank.c", "e2-ell", "a6595852c453e41056343269aaf27cd8", 0);
  ("filter_bank.c", "e2-dt", "a6595852c453e41056343269aaf27cd8", 0);
  ("filter_bank.c", "e2-part", "a6595852c453e41056343269aaf27cd8", 0);
  ("filter_bank.c", "degrade-1", "a8437c25df56f37919950ac3a706088d", 0);
  ("filter_bank.c", "degrade-2", "a8437c25df56f37919950ac3a706088d", 0);
  ("filter_bank.c", "degrade-3", "97b5ccd7ad0cb7c834a989cfad45fbac", 10);
  ("filter_bank.c", "no-oct", "2e65e9ab88b7a62cfd108b33a884366d", 0);
  ("filter_bank.c", "no-ell", "e27f07fff0d5004becaced80415a0283", 10);
  ("filter_bank.c", "no-dt", "a6595852c453e41056343269aaf27cd8", 0);
  ("mini_fbw.c", "e2-intervals", "814598856d902b5bb5164880b5c1a556", 14);
  ("mini_fbw.c", "e2-baseline", "ec45c9e266e79cc9b48f4cfd383dcb40", 13);
  ("mini_fbw.c", "e2-lin", "ec45c9e266e79cc9b48f4cfd383dcb40", 13);
  ("mini_fbw.c", "e2-oct", "8a34e75449714f24e42d82bc391411e8", 11);
  ("mini_fbw.c", "e2-ell", "2b997c4ac25808d1489e0091a58d4aa4", 8);
  ("mini_fbw.c", "e2-dt", "0bfd8f0ade707fc2af08694321206b57", 7);
  ("mini_fbw.c", "e2-part", "6bf540de6656fdf7937c6d161785e382", 0);
  ("mini_fbw.c", "degrade-1", "7799bbbf259e46023d087e6d923b745b", 9);
  ("mini_fbw.c", "degrade-2", "7799bbbf259e46023d087e6d923b745b", 9);
  ("mini_fbw.c", "degrade-3", "7fb6df8feed1d2d0a4fa4995b3019bff", 12);
  ("mini_fbw.c", "no-oct", "86960744fa2a6e53a05727f720264369", 9);
  ("mini_fbw.c", "no-ell", "89fead6e110d0fb00cdb3a4cb7b2219f", 10);
  ("mini_fbw.c", "no-dt", "2b997c4ac25808d1489e0091a58d4aa4", 8);
  ("gen-s11", "e2-intervals", "c6c0a2b7a9d7f5928fe78d8c240a6f54", 55);
  ("gen-s11", "e2-baseline", "ff70143b8c943150b765874d37a7f7fb", 52);
  ("gen-s11", "e2-lin", "c9e88b1dc7ec44f0f9b9a0e48002174a", 40);
  ("gen-s11", "e2-oct", "f014fa8899bd7e2f8902e75f33bb5a8b", 24);
  ("gen-s11", "e2-ell", "8a27900e6a0441a944d4744e84013f59", 14);
  ("gen-s11", "e2-dt", "87e896aa2cdb4978ff106f0a8dadecc8", 6);
  ("gen-s11", "e2-part", "503063e5b84aa9efb61b24f4e33f7617", 0);
  ("gen-s11", "degrade-1", "fca0e0424552ad166677d7d9899f38e0", 22);
  ("gen-s11", "degrade-2", "fca0e0424552ad166677d7d9899f38e0", 22);
  ("gen-s11", "degrade-3", "d0520c4dc715c5358d9835d4feae51a6", 38);
  ("gen-s11", "no-oct", "a3dc204516d0e9c43e5395a446e4eb02", 22);
  ("gen-s11", "no-ell", "c946e7a0dbeccfd4ab5f2e3d7ff7344c", 16);
  ("gen-s11", "no-dt", "8a27900e6a0441a944d4744e84013f59", 14);
  ("gen-s12-bugs", "e2-intervals", "e643571306640ed2a76cdb65cb4c11d1", 87);
  ("gen-s12-bugs", "e2-baseline", "93f36f37cd33d89e9f744018c72c8229", 85);
  ("gen-s12-bugs", "e2-lin", "cea4f09b84464617c620d517f402d8f2", 77);
  ("gen-s12-bugs", "e2-oct", "ade5f921fd67479ede92fac7ab3d7ba5", 65);
  ("gen-s12-bugs", "e2-ell", "131a308f5822e51c04bff9ae3fb4a646", 63);
  ("gen-s12-bugs", "e2-dt", "4e7f127fcddc010d10a344129e77066a", 57);
  ("gen-s12-bugs", "e2-part", "a4b9b478588a263f80fe3ff8ba6bc82c", 55);
  ("gen-s12-bugs", "degrade-1", "395dc0b9ddfecf43ff657cf7fa86be1e", 69);
  ("gen-s12-bugs", "degrade-2", "395dc0b9ddfecf43ff657cf7fa86be1e", 69);
  ("gen-s12-bugs", "degrade-3", "6a0faeedf590187d943462e2ff4ad2be", 75);
  ("gen-s12-bugs", "no-oct", "a44dda9c1581e9cf21849eca7b3b3a78", 69);
  ("gen-s12-bugs", "no-ell", "13dabee64df9ed8a84148442a8a504f2", 59);
  ("gen-s12-bugs", "no-dt", "131a308f5822e51c04bff9ae3fb4a646", 63)
  ]

(* (row, state, entry digest) under the default configuration: the
   main-loop invariant of every row as a whole-program frame
   ([Summary.entry_digest]), and, for a fused member run with the
   in-memory summary cache, the number of distinct framed call-entry
   digests and the MD5 of their sorted list *)
let expected_digests : (string * string * string) list =
  [
  ("buggy_demo.c", "main-loop", "4eac6ddf4924a66e2b4c034b25d4584b");
  ("filter_bank.c", "main-loop", "d6f3a7397dcb804c0a8e7807685b1d3d");
  ("mini_fbw.c", "main-loop", "3bf4e6fb617826980a3576a163b95cdd");
  ("gen-s11", "main-loop", "7daa573b28abb943fca0f9c10c1777b2");
  ("gen-s12-bugs", "main-loop", "34f364ebbcd4694034990cb87f97ccd9");
  ("gen-s4-fused", "call entries: 291", "e75c3f1c3ba9affa21abec708bebed9b")
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
    List.map (fun k -> k.C.Iterator.sk_entry) keys
    |> List.sort_uniq String.compare
  in
  [
    ( "gen-s4-fused",
      Fmt.str "call entries: %d" (List.length entries),
      Digest.to_hex (Digest.string (String.concat "," entries)) );
  ]

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

let suite =
  [
    Alcotest.test_case "fingerprints and alarms per configuration" `Slow
      test_results;
    Alcotest.test_case "summary entry digests" `Quick test_digests;
  ]
