(* Incremental-subsystem tests: fingerprints are stable under
   whitespace/comment edits and invalidate through the callee closure;
   warm runs (in-memory and on-disk, sequential and parallel) reproduce
   the cold result exactly; corrupt stores degrade to cold, never
   fail. *)

module C = Astree_core
module F = Astree_frontend
module G = Astree_gen
module I = Astree_incremental
module P = Astree_parallel

(* ---------------- fingerprints ---------------- *)

let base_src =
  {|
volatile float input;
float acc;
float aux;

float scale(float x) {
  float y;
  y = x * 0.5f;
  if (y > 10.0f) { y = 10.0f; }
  return y;
}

float step(float x) {
  float s;
  s = scale(x) + 1.0f;
  return s;
}

float other(float x) {
  return x - 2.0f;
}

int main(void) {
  __astree_input_range(input, -100.0, 100.0);
  acc = 0.0f; aux = 0.0f;
  while (1) {
    acc = step(input);
    aux = other(input);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

(* same program, only comments and whitespace moved around *)
let whitespace_src =
  {|
/* a comment that was not there before */
volatile float input;
float acc;
float aux;


float scale(float x) {
  float y;   /* trailing comment */
  y = x * 0.5f;
  if (y > 10.0f) {
      y = 10.0f;
  }
  return y;
}

float step(float x) {
  float s;
  s = scale(x) + 1.0f;
  return s;
}

float other(float x) { return x - 2.0f; }

int main(void) {
  __astree_input_range(input, -100.0, 100.0);
  acc = 0.0f;
  aux = 0.0f;
  while (1) {
    acc = step(input);
    aux = other(input);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

(* one constant changed inside [scale] *)
let edited_src =
  {|
volatile float input;
float acc;
float aux;

float scale(float x) {
  float y;
  y = x * 0.25f;
  if (y > 10.0f) { y = 10.0f; }
  return y;
}

float step(float x) {
  float s;
  s = scale(x) + 1.0f;
  return s;
}

float other(float x) {
  return x - 2.0f;
}

int main(void) {
  __astree_input_range(input, -100.0, 100.0);
  acc = 0.0f; aux = 0.0f;
  while (1) {
    acc = step(input);
    aux = other(input);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let fps_of src =
  let p, _ = C.Analysis.compile [ ("t.c", src) ] in
  I.Fingerprint.make C.Config.default p

let fn_exn fps name =
  match I.Fingerprint.fn fps name with
  | Some h -> h
  | None -> Alcotest.failf "no fingerprint for %s" name

let test_fp_deterministic () =
  let a = fps_of base_src and b = fps_of base_src in
  Alcotest.(check string)
    "program fingerprint reproducible"
    (I.Fingerprint.program a) (I.Fingerprint.program b);
  List.iter
    (fun f ->
      Alcotest.(check string)
        (f ^ " reproducible") (fn_exn a f) (fn_exn b f))
    [ "scale"; "step"; "other"; "main" ]

let test_fp_whitespace_stable () =
  let a = fps_of base_src and b = fps_of whitespace_src in
  List.iter
    (fun f ->
      Alcotest.(check string)
        (f ^ " unchanged by whitespace/comments")
        (fn_exn a f) (fn_exn b f))
    [ "scale"; "step"; "other"; "main" ];
  Alcotest.(check string)
    "program fingerprint unchanged"
    (I.Fingerprint.program a) (I.Fingerprint.program b)

let test_fp_edit_propagates () =
  let a = fps_of base_src and b = fps_of edited_src in
  Alcotest.(check bool)
    "edited callee changed" true
    (fn_exn a "scale" <> fn_exn b "scale");
  Alcotest.(check bool)
    "caller changed through the closure" true
    (fn_exn a "step" <> fn_exn b "step");
  Alcotest.(check bool)
    "transitive caller (main) changed" true
    (fn_exn a "main" <> fn_exn b "main");
  Alcotest.(check string)
    "unrelated function unchanged" (fn_exn a "other") (fn_exn b "other");
  Alcotest.(check bool)
    "program fingerprint changed" true
    (I.Fingerprint.program a <> I.Fingerprint.program b)

let test_fp_config_sensitivity () =
  let p, _ = C.Analysis.compile [ ("t.c", base_src) ] in
  let base = I.Fingerprint.make C.Config.default p in
  let nooct =
    I.Fingerprint.make
      { C.Config.default with C.Config.use_octagons = false }
      p
  in
  Alcotest.(check bool)
    "domain selection is part of every fingerprint" true
    (fn_exn base "scale" <> fn_exn nooct "scale");
  (* jobs and the cache mode itself are result-neutral: excluded, so a
     -j1 warm run may reuse a -j4 store *)
  let j4 =
    I.Fingerprint.make
      {
        C.Config.default with
        C.Config.jobs = 4;
        summary_cache = C.Config.Cache_mem;
      }
      p
  in
  Alcotest.(check string)
    "jobs/cache excluded from the config digest"
    (fn_exn base "scale") (fn_exn j4 "scale")

(* ---------------- warm = cold = off ---------------- *)

let with_cache_driver k =
  I.Summary.register ();
  (* the test programs' helpers are tiny; memoize everything so hit
     counters are exercised *)
  let min0 = !C.Iterator.memo_min_stmts in
  C.Iterator.memo_min_stmts := 0;
  Fun.protect
    ~finally:(fun () ->
      C.Analysis.cache_driver := None;
      C.Iterator.memo_min_stmts := min0)
    (fun () ->
      (* counter assertions (hits > 0, loaded > 0, misses = 0) only hold
         without injected store faults: mask them so the suite stays
         green under a global ASTREE_FAULTS chaos run *)
      Astree_robust.Faultsim.with_suppressed k)

let with_private_dir k =
  let dir = Filename.temp_file "astree-cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> k dir)

let with_tmpdir k =
  match Sys.getenv_opt "ASTREE_TEST_CACHE" with
  | Some dir when dir <> "" ->
      (* persistent store shared across whole suite runs (CI runs the
         suite twice against it to exercise the warm path end to end);
         every assertion below holds on a pre-populated store, and
         nothing is cleaned up *)
      k dir
  | _ -> with_private_dir k

let cache_stats_exn (r : C.Analysis.result) =
  match r.C.Analysis.r_stats.C.Analysis.s_cache with
  | Some c -> c
  | None -> Alcotest.fail "expected cache statistics"

(* cold store run, warm store run and cache-off run must all agree on
   the one digest that covers alarms, census and final state; the warm
   run must be all hits *)
let check_warm_equals_cold ~name (cfg : C.Config.t) (p : F.Tast.program) =
  with_tmpdir (fun dir ->
      let off = C.Analysis.analyze ~cfg p in
      with_cache_driver (fun () ->
          let ccfg =
            { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
          in
          let cold = C.Analysis.analyze ~cfg:ccfg p in
          let warm = C.Analysis.analyze ~cfg:ccfg p in
          Alcotest.(check string)
            (name ^ ": cold = off")
            (P.Merge.fingerprint off) (P.Merge.fingerprint cold);
          Alcotest.(check string)
            (name ^ ": warm = off")
            (P.Merge.fingerprint off) (P.Merge.fingerprint warm);
          let cs = cache_stats_exn warm in
          Alcotest.(check bool)
            (name ^ ": warm run hits") true
            (cs.C.Analysis.c_hits > 0);
          Alcotest.(check int) (name ^ ": warm run misses") 0
            cs.C.Analysis.c_misses;
          Alcotest.(check bool)
            (name ^ ": store was loaded") true
            (cs.C.Analysis.c_loaded > 0)))

(* tests run from the dune sandbox; walk up to the repository root *)
let read_example name =
  let rec find dir depth =
    let cand =
      Filename.concat dir (Filename.concat "examples/data" name)
    in
    if Sys.file_exists cand then Some cand
    else if depth = 0 then None
    else find (Filename.dirname dir) (depth - 1)
  in
  match find (Sys.getcwd ()) 6 with
  | None -> None
  | Some path ->
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some s

let mini_fbw_src = lazy (read_example "mini_fbw.c")

let with_mini_fbw k =
  match Lazy.force mini_fbw_src with
  | None -> Alcotest.skip ()
  | Some src -> k src

let test_warm_mini_fbw_seq () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg =
        {
          C.Config.default with
          C.Config.partitioned_functions = [ "select_gain" ];
        }
      in
      check_warm_equals_cold ~name:"mini_fbw -j1" cfg p)

let test_warm_mini_fbw_par () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg =
        {
          C.Config.default with
          C.Config.jobs = 4;
          partitioned_functions = [ "select_gain" ];
        }
      in
      check_warm_equals_cold ~name:"mini_fbw -j4" cfg p)

let member_program () =
  let g =
    G.Generator.generate
      { G.Generator.default with G.Generator.seed = 5; target_lines = 400 }
  in
  let p, _ = C.Analysis.compile [ ("m.c", g.G.Generator.source) ] in
  ( {
      C.Config.default with
      C.Config.partitioned_functions = g.G.Generator.partition_fns;
    },
    p )

let test_warm_member_seq () =
  let cfg, p = member_program () in
  check_warm_equals_cold ~name:"member -j1" cfg p

let test_warm_member_par () =
  let cfg, p = member_program () in
  check_warm_equals_cold ~name:"member -j4" { cfg with C.Config.jobs = 4 } p

let test_mem_cache_equiv () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg =
        {
          C.Config.default with
          C.Config.partitioned_functions = [ "select_gain" ];
        }
      in
      let off = C.Analysis.analyze ~cfg p in
      with_cache_driver (fun () ->
          let r =
            C.Analysis.analyze
              ~cfg:{ cfg with C.Config.summary_cache = C.Config.Cache_mem }
              p
          in
          Alcotest.(check string)
            "in-memory cache result identical"
            (P.Merge.fingerprint off) (P.Merge.fingerprint r);
          (* the main loop revisits the same call contexts while
             iterating: even one run hits *)
          Alcotest.(check bool)
            "intra-run hits" true
            ((cache_stats_exn r).C.Analysis.c_hits > 0)))

(* ---------------- store robustness ---------------- *)

(* the store file of [p] under [cfg]: one file per program fingerprint,
   so a shared ASTREE_TEST_CACHE directory holding other programs'
   stores does not confuse the test *)
let store_file dir cfg p =
  let fps = I.Fingerprint.make cfg p in
  Filename.concat dir (I.Fingerprint.program fps ^ ".summaries")

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_store_corruption () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg = C.Config.default in
      let off = C.Analysis.analyze ~cfg p in
      with_tmpdir (fun dir ->
          with_cache_driver (fun () ->
              let ccfg =
                { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
              in
              let check_degraded name =
                let r = C.Analysis.analyze ~cfg:ccfg p in
                Alcotest.(check string)
                  (name ^ ": result identical")
                  (P.Merge.fingerprint off) (P.Merge.fingerprint r);
                Alcotest.(check int)
                  (name ^ ": nothing loaded")
                  0
                  (cache_stats_exn r).C.Analysis.c_loaded
              in
              (* garbage in place of a store file *)
              ignore (C.Analysis.analyze ~cfg:ccfg p);
              let file = store_file dir ccfg p in
              write_file file "not a summary store at all";
              check_degraded "garbage";
              (* truncated store: valid magic, payload cut short *)
              ignore (C.Analysis.analyze ~cfg:ccfg p);
              let full = In_channel.with_open_bin file In_channel.input_all in
              write_file file (String.sub full 0 (String.length full / 3));
              check_degraded "truncated";
              (* empty file *)
              write_file file "";
              check_degraded "empty")))

(* concurrent multi-process writers (daemon pool workers, batch runs
   sharing one cache directory) racing [Store.save] on the same key:
   no interleaving may ever publish a torn file, and merge-on-save must
   converge to the union of both writers' entries rather than letting
   the last rename drop the other writer's work *)
let store_magic = "astree-summary-store v5\n"

(* the store format contract: magic header, then the MD5 of the payload,
   then the payload.  Any complete file satisfies it; a torn or partial
   publish cannot. *)
let check_file_intact file =
  if Sys.file_exists file then
    try
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let hdr = really_input_string ic (String.length store_magic) in
          Alcotest.(check string) "store magic intact" store_magic hdr;
          let digest = really_input_string ic 16 in
          let payload = In_channel.input_all ic in
          Alcotest.(check bool)
            "store digest covers payload" true
            (Digest.string payload = digest))
    with End_of_file -> Alcotest.fail "torn store file published"

let test_store_racing_writers () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg = C.Config.default in
      (* harvest real summaries to race with: one cold cached run *)
      let dir0 = Filename.temp_file "astree-race-seed" "" in
      Sys.remove dir0;
      let key = I.Fingerprint.program (I.Fingerprint.make cfg p) in
      let entries =
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists dir0 then begin
              Array.iter
                (fun f -> Sys.remove (Filename.concat dir0 f))
                (Sys.readdir dir0);
              Sys.rmdir dir0
            end)
          (fun () ->
            with_cache_driver (fun () ->
                ignore
                  (C.Analysis.analyze
                     ~cfg:
                       {
                         cfg with
                         C.Config.summary_cache = C.Config.Cache_dir dir0;
                       }
                     p);
                I.Store.load ~dir:dir0 ~key))
      in
      if List.length entries < 2 then Alcotest.skip ();
      (* split into two overlapping halves, one per writer process *)
      let n = List.length entries in
      let half_a = List.filteri (fun i _ -> i <= n / 2) entries in
      let half_b = List.filteri (fun i _ -> i >= n / 2) entries in
      let dir = Filename.temp_file "astree-race" "" in
      Sys.remove dir;
      let file = Filename.concat dir (key ^ ".summaries") in
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists dir then begin
            Array.iter
              (fun f -> Sys.remove (Filename.concat dir f))
              (Sys.readdir dir);
            Sys.rmdir dir
          end)
        (fun () ->
          let writer half =
            flush stdout;
            flush stderr;
            match Unix.fork () with
            | 0 ->
                let code =
                  try
                    Astree_robust.Faultsim.with_suppressed (fun () ->
                        for _ = 1 to 40 do
                          I.Store.save ~dir ~key half
                        done);
                    0
                  with _ -> 1
                in
                Unix._exit code
            | pid -> pid
          in
          let pid_a = writer half_a in
          let pid_b = writer half_b in
          (* watch the published file while the two writers race *)
          let running = ref [ pid_a; pid_b ] in
          let statuses = ref [] in
          while !running <> [] do
            check_file_intact file;
            running :=
              List.filter
                (fun pid ->
                  match Unix.waitpid [ Unix.WNOHANG ] pid with
                  | 0, _ -> true
                  | _, st ->
                      statuses := st :: !statuses;
                      false)
                !running;
            Unix.sleepf 0.002
          done;
          List.iter
            (fun st ->
              Alcotest.(check bool)
                "writer exited cleanly" true
                (st = Unix.WEXITED 0))
            !statuses;
          check_file_intact file;
          let keys_of es = List.sort compare (List.map fst es) in
          let union =
            List.sort_uniq compare (List.map fst (half_a @ half_b))
          in
          (* whatever the race left behind is a coherent subset of the
             union — never torn, never foreign.  The oracle's own reads
             and saves run fault-suppressed: this test is about the
             writers racing, not about the chaos env corrupting the
             verification pass itself *)
          let after_race =
            Astree_robust.Faultsim.with_suppressed (fun () ->
                keys_of (I.Store.load ~dir ~key))
          in
          Alcotest.(check bool)
            "race result within the union" true
            (List.for_all (fun k -> List.mem k union) after_race);
          Alcotest.(check bool) "race result non-empty" true
            (after_race <> []);
          (* one sequential save of each half must now converge to the
             exact union, whichever writer won the race *)
          let converged =
            Astree_robust.Faultsim.with_suppressed (fun () ->
                I.Store.save ~dir ~key half_a;
                I.Store.save ~dir ~key half_b;
                keys_of (I.Store.load ~dir ~key))
          in
          Alcotest.(check bool)
            "merge-on-save converges to the union" true
            (converged = union)))

(* every example in the repository: warm, cold and cache-less runs must
   agree on the result fingerprint (alarms + census + final state) *)
let test_warm_all_examples () =
  List.iter
    (fun name ->
      match read_example name with
      | None -> ()
      | Some src ->
          let p, _ = C.Analysis.compile [ (name, src) ] in
          let cfg = C.Config.default in
          let off = C.Analysis.analyze ~cfg p in
          with_tmpdir (fun dir ->
              with_cache_driver (fun () ->
                  let ccfg =
                    {
                      cfg with
                      C.Config.summary_cache = C.Config.Cache_dir dir;
                    }
                  in
                  let cold = C.Analysis.analyze ~cfg:ccfg p in
                  let warm = C.Analysis.analyze ~cfg:ccfg p in
                  Alcotest.(check string)
                    (name ^ ": cold = off")
                    (P.Merge.fingerprint off) (P.Merge.fingerprint cold);
                  Alcotest.(check string)
                    (name ^ ": warm = off")
                    (P.Merge.fingerprint off) (P.Merge.fingerprint warm))))
    [ "mini_fbw.c"; "filter_bank.c"; "buggy_demo.c" ]

(* ---------------- versioned blobs (daemon checkpoints) ---------------- *)

let blob_magic = "astree-test-blob v1\n"

let with_blob_file k =
  let file = Filename.temp_file "astree-blob" ".bin" in
  Sys.remove file;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () -> k file)

let test_blob_roundtrip () =
  with_blob_file (fun file ->
      let v = [ ("alpha", [ 1; 2; 3 ]); ("beta", [ 4 ]) ] in
      I.Store.save_blob ~file ~magic:blob_magic v;
      Alcotest.(check (option (list (pair string (list int)))))
        "round-trips" (Some v)
        (I.Store.load_blob ~file ~magic:blob_magic);
      (* a second save atomically replaces the first *)
      I.Store.save_blob ~file ~magic:blob_magic [ ("gamma", [ 9 ]) ];
      Alcotest.(check (option (list (pair string (list int)))))
        "overwrites atomically"
        (Some [ ("gamma", [ 9 ]) ])
        (I.Store.load_blob ~file ~magic:blob_magic))

let test_blob_missing_and_magic () =
  with_blob_file (fun file ->
      Alcotest.(check (option (list int)))
        "missing file reads as None" None
        (I.Store.load_blob ~file ~magic:blob_magic);
      I.Store.save_blob ~file ~magic:blob_magic [ 1; 2 ];
      Alcotest.(check (option (list int)))
        "foreign magic rejected" None
        (I.Store.load_blob ~file ~magic:"astree-test-blob v2\n"))

let test_blob_corrupt () =
  with_blob_file (fun file ->
      I.Store.save_blob ~file ~magic:blob_magic [ 1; 2; 3; 4; 5 ];
      let blob = In_channel.with_open_bin file In_channel.input_all in
      (* bit rot mid-payload *)
      let rotten = Bytes.of_string blob in
      let mid = Bytes.length rotten - 4 in
      Bytes.set rotten mid
        (Char.chr (Char.code (Bytes.get rotten mid) lxor 0xFF));
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_bytes oc rotten);
      Alcotest.(check (option (list int)))
        "corrupt blob reads as None" None
        (I.Store.load_blob ~file ~magic:blob_magic);
      (* a write that stopped halfway *)
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (String.sub blob 0 (String.length blob / 2)));
      Alcotest.(check (option (list int)))
        "truncated blob reads as None" None
        (I.Store.load_blob ~file ~magic:blob_magic))

let test_blob_torn_write () =
  with_blob_file (fun file ->
      (* with the fault armed the writer tears mid-payload on the final
         name — the digest check must reject the file, silently *)
      Astree_robust.Faultsim.install ~seed:5
        [ (Astree_robust.Faultsim.Checkpoint_torn, 1.0) ];
      Fun.protect
        ~finally:(fun () -> Astree_robust.Faultsim.clear ())
        (fun () ->
          I.Store.save_blob ~file ~magic:blob_magic [ 42 ];
          Alcotest.(check bool) "torn file was published" true
            (Sys.file_exists file);
          Alcotest.(check (option (list int)))
            "torn blob reads as None" None
            (I.Store.load_blob ~file ~magic:blob_magic)))

(* ---------------- Merkle entry-state keys ---------------- *)

(* the same value with no cached digest anywhere: what a from-scratch
   digest sees *)
let fresh_copy (st : C.Astate.t) : C.Astate.t =
  let cp m = C.Ptmap.map Fun.id m in
  let rel = st.C.Astate.rel in
  {
    st with
    C.Astate.env =
      (match st.C.Astate.env with
      | C.Env.Shared m -> C.Env.Shared (cp m)
      | e -> e);
    rel =
      {
        C.Relstate.octs = cp rel.C.Relstate.octs;
        ells = cp rel.C.Relstate.ells;
        dts = cp rel.C.Relstate.dts;
      };
  }

let check_canonical name st binds =
  let d = I.Summary.entry_digest st binds in
  Alcotest.(check string)
    (name ^ ": cached digest = from-scratch digest")
    (I.Summary.entry_digest (fresh_copy st) binds)
    d;
  Alcotest.(check string)
    (name ^ ": digest is stable")
    d
    (I.Summary.entry_digest st binds)

(* run [p] with a Cache_mem summary cache and return every
   (key, entry state, bindings) the run computed a key for *)
let recorded_keys (cfg : C.Config.t) (p : F.Tast.program) =
  let seen = ref [] in
  with_cache_driver (fun () ->
      C.Analysis.cache_driver :=
        Some
          (fun ses cfg p core ->
            I.Summary.driver ses cfg p (fun () ->
                (match ses.C.Transfer.ses_memo with
                | Some m ->
                    let cm_key ~fname ~checking st binds =
                      let k = m.C.Iterator.cm_key ~fname ~checking st binds in
                      Option.iter (fun k -> seen := (k, st, binds) :: !seen) k;
                      k
                    in
                    ses.C.Transfer.ses_memo <-
                      Some { m with C.Iterator.cm_key }
                | None -> ());
                core ()));
      let r =
        C.Analysis.analyze
          ~cfg:{ cfg with C.Config.summary_cache = C.Config.Cache_mem }
          p
      in
      (r, List.rev !seen))

(* a digest that is cached on a map goes stale if a value is mutated
   after it was hashed: recomputing every key of a run after the run,
   cached and from scratch, catches any such mutation *)
let test_merkle_matches_scratch () =
  List.iter
    (fun name ->
      match read_example name with
      | None -> ()
      | Some src ->
          let p, _ = C.Analysis.compile [ (name, src) ] in
          let r = C.Analysis.analyze ~cfg:C.Config.default p in
          check_canonical (name ^ " final") r.C.Analysis.r_final
            F.Tast.VarMap.empty;
          Hashtbl.iter
            (fun id st ->
              check_canonical
                (Printf.sprintf "%s invariant %d" name id)
                st F.Tast.VarMap.empty)
            r.C.Analysis.r_actx.C.Transfer.invariants)
    [ "mini_fbw.c"; "filter_bank.c"; "buggy_demo.c" ];
  let cfg, p = member_program () in
  let _, keys = recorded_keys cfg p in
  Alcotest.(check bool) "the run took keys" true (keys <> []);
  Alcotest.(check bool)
    "keyed states carry octagons" true
    (List.exists
       (fun (_, st, _) ->
         not (C.Ptmap.is_empty st.C.Astate.rel.C.Relstate.octs))
       keys);
  List.iteri
    (fun i (k, st, binds) ->
      let name = Printf.sprintf "key %d (%s)" i k.C.Iterator.sk_fn in
      Alcotest.(check string)
        (name ^ ": recomputed after the run")
        k.C.Iterator.sk_entry
        (I.Summary.entry_digest st binds);
      Alcotest.(check string)
        (name ^ ": from scratch after the run")
        k.C.Iterator.sk_entry
        (I.Summary.entry_digest (fresh_copy st) binds))
    keys

let keyed_state_with_octagons () =
  let cfg, p = member_program () in
  let _, keys = recorded_keys cfg p in
  match
    List.find_opt
      (fun (_, st, _) ->
        (not (C.Ptmap.is_empty st.C.Astate.rel.C.Relstate.octs))
        && C.Env.cardinal st.C.Astate.env > 0)
      keys
  with
  | Some (_, st, binds) -> (st, binds)
  | None -> Alcotest.fail "no keyed state with octagons"

let test_merkle_sensitive () =
  let st, binds = keyed_state_with_octagons () in
  let d0 = I.Summary.entry_digest st binds in
  (* one cell bound *)
  let id, v =
    match C.Env.fold (fun id v acc -> (id, v) :: acc) st.C.Astate.env [] with
    | b :: _ -> b
    | [] -> Alcotest.fail "empty environment"
  in
  let bumped : Astree_domains.Itv.t =
    match C.Avalue.itv v with
    | Astree_domains.Itv.Int (lo, hi) -> Astree_domains.Itv.Int (lo - 1, hi)
    | Astree_domains.Itv.Float (lo, hi) ->
        Astree_domains.Itv.Float (Float.pred lo, hi)
    | Astree_domains.Itv.Bot -> Astree_domains.Itv.Int (0, 0)
  in
  let st_cell =
    {
      st with
      C.Astate.env = C.Env.set st.C.Astate.env id (C.Avalue.with_itv v bumped);
    }
  in
  (* one octagon entry, and one closure flag, each on a copy *)
  let octs = st.C.Astate.rel.C.Relstate.octs in
  let pid, o =
    match C.Ptmap.bindings octs with
    | b :: _ -> b
    | [] -> Alcotest.fail "no octagon"
  in
  let with_oct o' =
    {
      st with
      C.Astate.rel =
        { st.C.Astate.rel with C.Relstate.octs = C.Ptmap.add pid o' octs };
    }
  in
  let o_entry = Astree_domains.Octagon.copy o in
  let m = o_entry.Astree_domains.Octagon.m in
  m.(1) <- (if m.(1) = Float.infinity then 1.0 else Float.infinity);
  let o_flag = Astree_domains.Octagon.copy o in
  o_flag.Astree_domains.Octagon.closure <-
    (match o.Astree_domains.Octagon.closure with
    | Astree_domains.Octagon.Closed -> Astree_domains.Octagon.Unclosed
    | _ -> Astree_domains.Octagon.Closed);
  let variants =
    [
      ("cell bound", st_cell);
      ("octagon entry", with_oct o_entry);
      ("closure flag", with_oct o_flag);
    ]
  in
  let digests =
    List.map
      (fun (name, st') ->
        let d = I.Summary.entry_digest st' binds in
        Alcotest.(check bool) (name ^ " changes the key") true (d <> d0);
        Alcotest.(check string)
          (name ^ ": canonical")
          (I.Summary.entry_digest (fresh_copy st') binds)
          d;
        d)
      variants
  in
  Alcotest.(check int)
    "the three keys are distinct" 3
    (List.length (List.sort_uniq String.compare digests));
  Alcotest.(check string)
    "the original key is untouched" d0
    (I.Summary.entry_digest st binds)

let test_merkle_marshal () =
  let cfg, p = member_program () in
  let _, keys = recorded_keys cfg p in
  List.iteri
    (fun i ((k : C.Iterator.summary_key), st, binds) ->
      let st', binds' =
        (Marshal.from_string (Marshal.to_string (st, binds) []) 0
          : C.Astate.t * C.Transfer.binds)
      in
      let name = Printf.sprintf "key %d" i in
      Alcotest.(check string)
        (name ^ ": survives Marshal")
        k.C.Iterator.sk_entry
        (I.Summary.entry_digest st' binds');
      Alcotest.(check string)
        (name ^ ": survives Marshal, from scratch")
        k.C.Iterator.sk_entry
        (I.Summary.entry_digest (fresh_copy st') binds'))
    keys

(* ---------------- moved code and the no-write rule ---------------- *)

(* a fused member with injected defects: its alarms sit inside memoized
   stage functions, so a stale summary would replay stale locations *)
let buggy_fused_src () =
  (G.Generator.generate
     {
       G.Generator.default with
       G.Generator.seed = 5;
       target_lines = 400;
       bug_ratio = 0.3;
       fuse = 16;
     })
    .G.Generator.source

let no_relational =
  {
    C.Config.default with
    C.Config.use_octagons = false;
    use_ellipsoids = false;
    use_decision_trees = false;
  }

(* a copy of the program moved three lines down under another file name
   keeps every function fingerprint, so it reuses the store file — but
   none of the moved summaries may replay the old locations *)
let test_moved_copy_warm_equals_off () =
  let src = buggy_fused_src () in
  let p, _ = C.Analysis.compile [ ("fb.c", src) ] in
  let q, _ = C.Analysis.compile [ ("fbm.c", "\n\n\n" ^ src) ] in
  List.iter
    (fun (cname, cfg) ->
      let off_p = C.Analysis.analyze ~cfg p in
      let off_q = C.Analysis.analyze ~cfg q in
      Alcotest.(check bool)
        (cname ^ ": the program raises alarms") true
        (C.Analysis.n_alarms off_q > 0);
      Alcotest.(check bool)
        (cname ^ ": the move shows in the result") true
        (P.Merge.fingerprint off_p <> P.Merge.fingerprint off_q);
      Alcotest.(check string)
        (cname ^ ": same store file")
        (I.Fingerprint.program (I.Fingerprint.make cfg p))
        (I.Fingerprint.program (I.Fingerprint.make cfg q));
      with_tmpdir (fun dir ->
          with_cache_driver (fun () ->
              let ccfg =
                { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
              in
              ignore (C.Analysis.analyze ~cfg:ccfg p);
              let warm_q = C.Analysis.analyze ~cfg:ccfg q in
              Alcotest.(check string)
                (cname ^ ": moved copy warm = off")
                (P.Merge.fingerprint off_q)
                (P.Merge.fingerprint warm_q);
              let warm_p = C.Analysis.analyze ~cfg:ccfg p in
              Alcotest.(check string)
                (cname ^ ": original warm = off")
                (P.Merge.fingerprint off_p)
                (P.Merge.fingerprint warm_p))))
    [ ("default", C.Config.default); ("no relational", no_relational) ]

(* [store] evaluates the caller's lvalue [table[k]] it is bound to by
   reference: the out-of-bounds alarm on [k] sits in [main], outside
   the callee's own locations *)
let by_ref_src ~pad =
  Printf.sprintf
    {|
volatile int channel;
int table[4];

void store(int *p) {
  *p = 1;
  *p = *p + 1;
}
%s
int main(void) {
  int k;
  __astree_input_range(channel, 0.0, 8.0);
  while (1) {
    k = channel;
    store(&table[k]);
    __astree_wait_for_clock();
  }
  return 0;
}
|}
    pad

(* moving only the caller keeps the callee's summary key unless the key
   pins the locations of the bound lvalue, whose alarm would replay at
   the caller's old line *)
let test_moved_caller_by_ref_warm_equals_off () =
  let p, _ = C.Analysis.compile [ ("r.c", by_ref_src ~pad:"") ] in
  let q, _ = C.Analysis.compile [ ("r.c", by_ref_src ~pad:"\n\n\n") ] in
  let cfg = C.Config.default in
  let off_p = C.Analysis.analyze ~cfg p in
  let off_q = C.Analysis.analyze ~cfg q in
  Alcotest.(check bool) "the program raises alarms" true
    (C.Analysis.n_alarms off_q > 0);
  Alcotest.(check bool) "the move shows in the result" true
    (P.Merge.fingerprint off_p <> P.Merge.fingerprint off_q);
  let fps_p = I.Fingerprint.make cfg p and fps_q = I.Fingerprint.make cfg q in
  Alcotest.(check (option string)) "the callee did not move"
    (I.Fingerprint.summary_fn fps_p "store")
    (I.Fingerprint.summary_fn fps_q "store");
  with_private_dir (fun dir ->
      with_cache_driver (fun () ->
          let ccfg =
            { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
          in
          ignore (C.Analysis.analyze ~cfg:ccfg p);
          let warm_q = C.Analysis.analyze ~cfg:ccfg q in
          Alcotest.(check string) "moved caller warm = off"
            (P.Merge.fingerprint off_q)
            (P.Merge.fingerprint warm_q)))

let file_state file =
  let s = Unix.stat file in
  ( s.Unix.st_ino,
    s.Unix.st_mtime,
    In_channel.with_open_bin file In_channel.input_all )

let test_noop_warm_run_does_not_write () =
  let src = buggy_fused_src () in
  let p, _ = C.Analysis.compile [ ("fb.c", src) ] in
  let q, _ = C.Analysis.compile [ ("fbm.c", "\n\n\n" ^ src) ] in
  let cfg = C.Config.default in
  with_private_dir (fun dir ->
      with_cache_driver (fun () ->
          let ccfg =
            { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
          in
          let run prog = cache_stats_exn (C.Analysis.analyze ~cfg:ccfg prog) in
          let file = store_file dir ccfg p in
          let cold = run p in
          Alcotest.(check bool) "cold run wrote" true (Sys.file_exists file);
          let ino0, mtime0, bytes0 = file_state file in
          let warm = run p in
          Alcotest.(check int) "warm run misses" 0 warm.C.Analysis.c_misses;
          Alcotest.(check (float 0.)) "warm save_time" 0.
            warm.C.Analysis.c_save_time;
          let ino1, mtime1, bytes1 = file_state file in
          Alcotest.(check int) "inode unchanged" ino0 ino1;
          Alcotest.(check (float 0.)) "mtime unchanged" mtime0 mtime1;
          Alcotest.(check bool) "bytes unchanged" true (bytes0 = bytes1);
          (* the moved copy shares the store file but adds keys: it
             writes, and what it writes is the union *)
          let moved = run q in
          Alcotest.(check bool) "moved copy misses" true
            (moved.C.Analysis.c_misses > 0);
          Alcotest.(check bool) "moved copy saved" true
            (moved.C.Analysis.c_save_time > 0.);
          let ino2, _, _ = file_state file in
          Alcotest.(check bool) "store rewritten" true (ino2 <> ino0);
          let key = I.Fingerprint.program (I.Fingerprint.make ccfg p) in
          Alcotest.(check int) "store holds the union"
            moved.C.Analysis.c_entries
            (List.length (I.Store.load ~dir ~key));
          Alcotest.(check bool) "union is larger" true
            (moved.C.Analysis.c_entries > cold.C.Analysis.c_entries);
          Alcotest.(check int) "original still all hits" 0
            (run p).C.Analysis.c_misses;
          Alcotest.(check int) "moved copy now all hits" 0
            (run q).C.Analysis.c_misses))

(* a store written before the key change must read as foreign: the
   run degrades to cold, is exact, and replaces the file *)
let test_old_store_is_foreign () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg = C.Config.default in
      let off = C.Analysis.analyze ~cfg p in
      with_private_dir (fun dir ->
          with_cache_driver (fun () ->
              let ccfg =
                { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
              in
              let file = store_file dir ccfg p in
              let key = I.Fingerprint.program (I.Fingerprint.make ccfg p) in
              let payload =
                Marshal.to_string
                  (Sys.ocaml_version, key, ([||] : (int * int) array))
                  []
              in
              Unix.mkdir dir 0o755;
              write_file file
                ("astree-summary-store v4\n" ^ Digest.string payload ^ payload);
              let r = C.Analysis.analyze ~cfg:ccfg p in
              Alcotest.(check string)
                "result identical" (P.Merge.fingerprint off)
                (P.Merge.fingerprint r);
              Alcotest.(check int) "nothing loaded" 0
                (cache_stats_exn r).C.Analysis.c_loaded;
              check_file_intact file)))

let suite =
  [
    Alcotest.test_case "fingerprint: deterministic" `Quick
      test_fp_deterministic;
    Alcotest.test_case "fingerprint: whitespace/comment stable" `Quick
      test_fp_whitespace_stable;
    Alcotest.test_case "fingerprint: edits reach callers" `Quick
      test_fp_edit_propagates;
    Alcotest.test_case "fingerprint: config sensitivity" `Quick
      test_fp_config_sensitivity;
    Alcotest.test_case "warm = cold: mini_fbw -j1" `Quick
      test_warm_mini_fbw_seq;
    Alcotest.test_case "warm = cold: mini_fbw -j4" `Quick
      test_warm_mini_fbw_par;
    Alcotest.test_case "warm = cold: family member -j1" `Slow
      test_warm_member_seq;
    Alcotest.test_case "warm = cold: family member -j4" `Slow
      test_warm_member_par;
    Alcotest.test_case "in-memory cache equivalence" `Quick
      test_mem_cache_equiv;
    Alcotest.test_case "warm = cold: every example" `Quick
      test_warm_all_examples;
    Alcotest.test_case "store: corrupt files degrade to cold" `Quick
      test_store_corruption;
    Alcotest.test_case "store: racing writers never tear" `Quick
      test_store_racing_writers;
    Alcotest.test_case "blob: round-trip and atomic replace" `Quick
      test_blob_roundtrip;
    Alcotest.test_case "blob: missing file and foreign magic" `Quick
      test_blob_missing_and_magic;
    Alcotest.test_case "blob: corrupt + truncated read as None" `Quick
      test_blob_corrupt;
    Alcotest.test_case "blob: torn write rejected by digest" `Quick
      test_blob_torn_write;
    Alcotest.test_case "summary key: Merkle digest = from scratch" `Quick
      test_merkle_matches_scratch;
    Alcotest.test_case "summary key: bound, entry, flag change it" `Quick
      test_merkle_sensitive;
    Alcotest.test_case "summary key: survives Marshal" `Quick
      test_merkle_marshal;
    Alcotest.test_case "summary key: moved copy warm = off" `Quick
      test_moved_copy_warm_equals_off;
    Alcotest.test_case "summary key: moved caller, by-ref bind warm = off"
      `Quick test_moved_caller_by_ref_warm_equals_off;
    Alcotest.test_case "store: no-op warm run does not write" `Quick
      test_noop_warm_run_does_not_write;
    Alcotest.test_case "store: v4 store reads as foreign" `Quick
      test_old_store_is_foreign;
  ]
