(* Incremental-subsystem tests: fingerprints are stable under
   whitespace/comment edits and invalidate through the callee closure
   only; warm runs (sequential and parallel, on the same program and on
   edited copies over one store) reproduce the cache-off result
   exactly; corrupt stores degrade to cold, never fail. *)

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
        summary_cache = C.Config.Cache_dir "unused";
      }
      p
  in
  Alcotest.(check string)
    "jobs/cache excluded from the config digest"
    (fn_exn base "scale") (fn_exn j4 "scale")

(* ---------------- warm = cold = off ---------------- *)

let with_cache_driver ?(min_stmts = 0) k =
  I.Summary.register ();
  (* the test programs' helpers are tiny; by default memoize everything
     so hit counters are exercised *)
  let min0 = !C.Memo.memo_min_stmts in
  C.Memo.memo_min_stmts := min_stmts;
  Fun.protect
    ~finally:(fun () ->
      C.Analysis.cache_driver := None;
      C.Memo.memo_min_stmts := min0)
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

(* the --explain rendering of a run's alarms: call chains, raising
   domains and operand values, none of which its fingerprint covers *)
let explain (r : C.Analysis.result) =
  String.concat "\n"
    (List.map (Fmt.str "%a" C.Alarm.pp_explain) r.C.Analysis.r_alarms)

(* what a run shows its user besides the fingerprint: the report
   without its time and cache statistics, the --explain rendering, the
   invariant dump and the main-loop census *)
let renderings (r : C.Analysis.result) =
  let stats =
    { r.C.Analysis.r_stats with C.Analysis.s_time = 0.; s_cache = None }
  in
  [
    ( "reports as",
      Fmt.str "%a" C.Analysis.pp_result
        { r with C.Analysis.r_stats = stats } );
    ("explains as", explain r);
    ("dumps as", C.Invariant_dump.to_string r);
    ( "census",
      match C.Invariant_census.main_loop_census r with
      | Some c -> Fmt.str "%a" C.Invariant_census.pp c
      | None -> "" );
  ]

let body_passes = Astree_obs.Metrics.counter "iter.body_passes"

(* [k ()] and the loop-body passes it computed *)
let with_body_passes k =
  let before = Astree_obs.Metrics.value body_passes in
  let r = k () in
  (r, Astree_obs.Metrics.value body_passes - before)

(* [r] equals the cache-off run [off] in fingerprint and renderings *)
let check_agrees ~name ~run (off : C.Analysis.result) (r : C.Analysis.result) =
  let agree what a b =
    Alcotest.(check string) (Printf.sprintf "%s: %s %s off" name run what) a b
  in
  agree "=" (P.Merge.fingerprint off) (P.Merge.fingerprint r);
  List.iter2
    (fun (what, a) (_, b) -> agree what a b)
    (renderings off) (renderings r)

(* a fully warm run replays one summary per task's entry point and
   computes nothing *)
let check_one_lookup ~name ?(tasks = 1) (warm : C.Analysis.result) passes =
  let cs = cache_stats_exn warm in
  Alcotest.(check (list int))
    (name ^ ": warm hits, misses, loaded, body passes")
    [ tasks; 0; tasks; 0 ]
    [
      cs.C.Analysis.c_hits;
      cs.C.Analysis.c_misses;
      cs.C.Analysis.c_loaded;
      passes;
    ]

(* cold store run, warm store run and cache-off run must all agree on
   the one digest that covers alarms, census and final state, and on
   every rendering, byte for byte; the warm run must be one hit on the
   entry point.  [min_stmts] is the memoization threshold (default 0:
   every callee), [dir] a store shared with other checks (default: the
   suite's store, see [with_tmpdir]). *)
let check_warm_equals_cold ~name ?min_stmts ?dir (cfg : C.Config.t)
    (p : F.Tast.program) =
  let in_store k = match dir with Some dir -> k dir | None -> with_tmpdir k in
  in_store (fun dir ->
      let off = C.Analysis.analyze ~cfg p in
      with_cache_driver ?min_stmts (fun () ->
          let ccfg =
            { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
          in
          let cold = C.Analysis.analyze ~cfg:ccfg p in
          let warm, passes =
            with_body_passes (fun () -> C.Analysis.analyze ~cfg:ccfg p)
          in
          check_agrees ~name ~run:"cold" off cold;
          check_agrees ~name ~run:"warm" off warm;
          check_one_lookup ~name warm passes))

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

(* A fresh store per run: the cold run's own table answers its repeats. *)
let cold_store_run cfg p =
  with_private_dir (fun dir ->
      C.Analysis.analyze
        ~cfg:{ cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
        p)

let test_private_store_equiv () =
  let shipped_min_stmts = !C.Memo.memo_min_stmts in
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
          let r = cold_store_run cfg p in
          Alcotest.(check string)
            "private-store result identical"
            (P.Merge.fingerprint off) (P.Merge.fingerprint r);
          C.Memo.memo_min_stmts := shipped_min_stmts;
          let g =
            G.Generator.generate
              {
                G.Generator.default with
                G.Generator.seed = 6;
                target_lines = 2000;
                fuse = 16;
              }
          in
          let p, _ =
            C.Analysis.compile [ ("fused6.c", g.G.Generator.source) ]
          in
          let cfg =
            {
              C.Config.default with
              C.Config.partitioned_functions = g.G.Generator.partition_fns;
            }
          in
          let r = cold_store_run cfg p in
          Alcotest.(check string)
            "fused member: private-store result identical"
            (P.Merge.fingerprint (C.Analysis.analyze ~cfg p))
            (P.Merge.fingerprint r);
          (* Calls whose framed entry really repeats within one run hit.
             The iterator reuses a loop pass on an input it has already
             analyzed, and a loop's call slots replay a call site's
             repeats before the keyed tier sees them (DESIGN.md §6).
             Slots are per call site, though: when one callee is called
             from two sites with the same framed entry, the run's table
             answers the second.  Here the second and third calls of
             [stage] see the same frame ([t] is not bound yet at the
             first), so the third call is a hit whenever the second was
             computed. *)
          C.Memo.memo_min_stmts := 0;
          let p, _ =
            C.Analysis.compile
              [
                ( "sites.c",
                  "volatile int v;\nint x; int y;\n\
                   void stage(void) { int t; t = x * 2; y = t + 1; }\n\
                   int main(void) {\n\
                  \  __astree_input_range(v, 0.0, 100.0);\n\
                  \  while (1) {\n\
                  \    x = v; stage(); stage(); stage();\n\
                  \    __astree_wait_for_clock();\n\
                  \  }\n\
                  \  return 0;\n\
                   }\n" );
              ]
          in
          let cfg = C.Config.default in
          let r = cold_store_run cfg p in
          Alcotest.(check string)
            "two sites: private-store result identical"
            (P.Merge.fingerprint (C.Analysis.analyze ~cfg p))
            (P.Merge.fingerprint r);
          Alcotest.(check bool)
            "intra-run hits: same entry at a second site" true
            ((cache_stats_exn r).C.Analysis.c_hits > 0)))

(* ---------------- store robustness ---------------- *)

(* the store files of a directory: one content-addressed directory for
   every program, one file per run that computed new summaries *)
let store_files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sums")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_store_corruption () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg = C.Config.default in
      let off = C.Analysis.analyze ~cfg p in
      with_private_dir (fun dir ->
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
              (* a degraded run publishes a good file again: damage every
                 file of the directory before each check *)
              let damage f =
                List.iter
                  (fun file ->
                    let full = In_channel.with_open_bin file In_channel.input_all in
                    write_file file (f full))
                  (store_files dir)
              in
              ignore (C.Analysis.analyze ~cfg:ccfg p);
              Alcotest.(check bool) "the cold run published" true
                (store_files dir <> []);
              (* garbage in place of a store file *)
              damage (fun _ -> "not a summary store at all");
              check_degraded "garbage";
              (* truncated store: valid magic, the index footer cut off *)
              damage (fun full -> String.sub full 0 (String.length full / 3));
              check_degraded "truncated";
              (* empty file *)
              damage (fun _ -> "");
              check_degraded "empty")))

(* concurrent multi-process writers (daemon pool workers, batch runs
   sharing one cache directory) racing [Store.save] on one directory:
   no interleaving may ever publish a torn file, and the directory must
   end up holding the union of both writers' entries *)
let store_magic = "astree-summary-store v9\n"

(* the file format contract: magic header, summaries, index, then a
   footer with the index length and the index's MD5.  Any complete file
   satisfies it; a torn or partial publish cannot. *)
let check_file_intact file =
  if Sys.file_exists file then
    try
      let s = In_channel.with_open_bin file In_channel.input_all in
      let n = String.length s in
      Alcotest.(check bool) "store file holds a footer" true
        (n >= String.length store_magic + 24);
      Alcotest.(check string) "store magic intact" store_magic
        (String.sub s 0 (String.length store_magic));
      let len = Int64.to_int (String.get_int64_le s (n - 24)) in
      Alcotest.(check bool)
        "store footer digest covers the index" true
        (Digest.string (String.sub s (n - 24 - len) len) = String.sub s (n - 16) 16)
    with Sys_error _ ->
      (* replaced by a concurrent rename between listing and reading *)
      ()

let stored_keys dir =
  Astree_robust.Faultsim.with_suppressed (fun () ->
      let st = I.Store.open_ ~dir in
      List.sort compare (I.Store.keys st))

(* every summary a cold run of [p] computes: what it publishes to an
   empty store *)
let harvest cfg p =
  with_private_dir (fun dir ->
      with_cache_driver (fun () ->
          ignore
            (C.Analysis.analyze
               ~cfg:{ cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
               p);
          let st = I.Store.open_ ~dir in
          Fun.protect
            ~finally:(fun () -> I.Store.close st)
            (fun () ->
              List.filter_map
                (fun k -> Option.map (fun s -> (k, s)) (I.Store.find st k))
                (I.Store.keys st))))

let test_store_racing_writers () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let entries = harvest C.Config.default p in
      if List.length entries < 2 then Alcotest.skip ();
      (* split into two overlapping halves, one per writer process *)
      let n = List.length entries in
      let half_a = List.filteri (fun i _ -> i <= n / 2) entries in
      let half_b = List.filteri (fun i _ -> i >= n / 2) entries in
      with_private_dir (fun dir ->
          let writer half =
            flush stdout;
            flush stderr;
            match Unix.fork () with
            | 0 ->
                let code =
                  try
                    Astree_robust.Faultsim.with_suppressed (fun () ->
                        for _ = 1 to 40 do
                          I.Store.save ~dir half
                        done);
                    0
                  with _ -> 1
                in
                Unix._exit code
            | pid -> pid
          in
          let pid_a = writer half_a in
          let pid_b = writer half_b in
          (* watch the published files while the two writers race *)
          let running = ref [ pid_a; pid_b ] in
          let statuses = ref [] in
          while !running <> [] do
            List.iter check_file_intact (store_files dir);
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
          List.iter check_file_intact (store_files dir);
          let union = List.sort_uniq compare (List.map fst (half_a @ half_b)) in
          (* each writer publishes its half once, however the race went:
             the directory holds exactly the union, in at most two files *)
          Alcotest.(check bool) "race result is the union" true
            (List.sort_uniq compare (stored_keys dir) = union);
          Alcotest.(check bool) "one file per writer at most" true
            (List.length (store_files dir) <= 2);
          (* a later save of both halves publishes nothing *)
          let before = store_files dir in
          Astree_robust.Faultsim.with_suppressed (fun () ->
              I.Store.save ~dir half_a;
              I.Store.save ~dir half_b);
          Alcotest.(check (list string)) "nothing left to publish" before
            (store_files dir)))

(* a save reads only the files published since the run opened the
   store: those it opened stand for themselves (names derive from
   content, files are never rewritten), and a file published in between
   is honoured *)
let test_save_reads_new_files () =
  with_mini_fbw (fun src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let entries = harvest C.Config.default p in
      if List.length entries < 3 then Alcotest.skip ();
      let n = List.length entries in
      let part lo hi = List.filteri (fun i _ -> lo <= i && i < hi) entries in
      let a = part 0 (n / 3) and b = part (n / 3) (2 * n / 3) in
      with_private_dir (fun dir ->
          Astree_robust.Faultsim.with_suppressed (fun () ->
              I.Store.save ~dir a;
              let opened = I.Store.open_ ~dir in
              let file_a = List.hd (store_files dir) in
              (* another writer publishes [b] after the run opened the store *)
              I.Store.save ~dir b;
              let before = store_files dir in
              Alcotest.(check int) "two files" 2 (List.length before);
              (* were [a]'s file read again it would not parse now, and
                 [a] would be published again, over it: same index, same
                 name *)
              let bytes_a = In_channel.with_open_bin file_a In_channel.input_all in
              write_file file_a "";
              I.Store.save ~opened ~dir (a @ b);
              Alcotest.(check (list string)) "nothing left to publish" before
                (store_files dir);
              Alcotest.(check int) "the opened file was not read again" 0
                (Unix.stat file_a).Unix.st_size;
              I.Store.save ~opened ~dir entries;
              Alcotest.(check int) "only the rest is published" 3
                (List.length (store_files dir));
              write_file file_a bytes_a;
              Alcotest.(check bool) "the store holds every entry" true
                (List.sort compare (List.map fst entries) = stored_keys dir))))

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

(* ---------------- framed entry-state keys ---------------- *)

(* run [p] cold against an empty store; return the result, the entry
   digests of the keys it published and every (context, callee, entry
   state, bindings) the run keyed *)
let recorded_calls (cfg : C.Config.t) (p : F.Tast.program) =
  let seen = ref [] in
  with_private_dir @@ fun dir ->
  with_cache_driver (fun () ->
      C.Analysis.cache_driver :=
        Some
          (fun ses pr core ->
            I.Summary.driver ses pr (fun () ->
                (match ses.C.Transfer.ses_keyed with
                | Some k ->
                    let kt_key a ~fname fr binds st =
                      seen := (a, fname, st, binds) :: !seen;
                      k.C.Transfer.kt_key a ~fname fr binds st
                    in
                    ses.C.Transfer.ses_keyed <-
                      Some { k with C.Transfer.kt_key }
                | None -> ());
                core ()));
      let r =
        C.Analysis.analyze
          ~cfg:{ cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
          p
      in
      let keys =
        List.map (fun k -> k.C.Transfer.sk_entry) (stored_keys dir)
      in
      (r, keys, List.rev !seen))

(* a fresh frame context of [a], built with the store's names *)
let named_frames fps (a : C.Transfer.actx) =
  C.Frame.ctx ~names:(I.Frame.names fps) a.C.Transfer.prepared.C.Transfer.pr_frames

(* the entry digest of one recorded call, from a fresh frame context *)
let key_of cfg p (a, fname, st, binds) =
  let fps = I.Fingerprint.make cfg p in
  let fr = C.Frame.of_call (named_frames fps a) ~fname binds in
  (fr, I.Frame.entry_digest (Buffer.create 1024) fps fr st binds)

(* a state mutated after it was keyed would make the run's key stale:
   recomputing every key after the run, from scratch, catches it *)
let test_key_matches_scratch () =
  let cfg, p = member_program () in
  let _, keys, calls = recorded_calls cfg p in
  Alcotest.(check bool) "the run took keys" true (calls <> []);
  Alcotest.(check bool)
    "keyed states carry octagons" true
    (List.exists
       (fun (_, _, st, _) ->
         not (C.Ptmap.is_empty st.C.Astate.rel.C.Relstate.octs))
       calls);
  List.iteri
    (fun i call ->
      let _, d = key_of cfg p call in
      Alcotest.(check bool)
        (Printf.sprintf "call %d: recomputed key is in the table" i)
        true (List.mem d keys);
      Alcotest.(check string)
        (Printf.sprintf "call %d: stable" i)
        d (snd (key_of cfg p call)))
    calls

(* a keyed call whose frame has an octagon pack, a cell, and whose entry
   state has a cell outside the frame *)
let keyed_call_with_octagons () =
  let cfg, p = member_program () in
  let _, _, calls = recorded_calls cfg p in
  let pick (a, fname, st, binds) =
    let fr, _ = key_of cfg p (a, fname, st, binds) in
    let octs = st.C.Astate.rel.C.Relstate.octs in
    let pack =
      List.find_opt
        (fun (pid, _) -> C.Frame.oct_pos fr pid <> None)
        (C.Ptmap.bindings octs)
    in
    let cells = C.Env.fold (fun id v acc -> (id, v) :: acc) st.C.Astate.env [] in
    let inside = List.find_opt (fun (id, _) -> C.Frame.cell_pos fr id <> None) cells in
    let outside = List.find_opt (fun (id, _) -> C.Frame.cell_pos fr id = None) cells in
    match (pack, inside, outside) with
    | Some pack, Some inside, Some outside ->
        Some ((a, fname, st, binds), pack, inside, outside)
    | _ -> None
  in
  match List.find_map pick calls with
  | Some c -> (cfg, p, c)
  | None -> Alcotest.fail "no keyed call with an octagon and an outside cell"

let bump (v : C.Avalue.t) : C.Avalue.t =
  C.Avalue.with_itv v
    (match C.Avalue.itv v with
    | Astree_domains.Itv.Int (lo, hi) -> Astree_domains.Itv.Int (lo - 1, hi)
    | Astree_domains.Itv.Float (lo, hi) ->
        Astree_domains.Itv.Float (Float.pred lo, hi)
    | Astree_domains.Itv.Bot -> Astree_domains.Itv.Int (0, 0))

let test_key_sensitive () =
  let cfg, p, ((a, fname, st, binds), (pid, o), (id_in, v_in), (id_out, v_out)) =
    keyed_call_with_octagons ()
  in
  let digest st' = snd (key_of cfg p (a, fname, st', binds)) in
  let d0 = digest st in
  let with_cell id v =
    { st with C.Astate.env = C.Env.set st.C.Astate.env id (bump v) }
  in
  let octs = st.C.Astate.rel.C.Relstate.octs in
  let with_oct o' =
    {
      st with
      C.Astate.rel =
        { st.C.Astate.rel with C.Relstate.octs = C.Ptmap.add pid o' octs };
    }
  in
  (* one octagon entry, and one closure flag, each on a copy *)
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
      ("frame cell bound", with_cell id_in v_in);
      ("octagon entry", with_oct o_entry);
      ("closure flag", with_oct o_flag);
    ]
  in
  let digests =
    List.map
      (fun (name, st') ->
        let d = digest st' in
        Alcotest.(check bool) (name ^ " changes the key") true (d <> d0);
        d)
      variants
  in
  Alcotest.(check int)
    "the three keys are distinct" 3
    (List.length (List.sort_uniq String.compare digests));
  Alcotest.(check string)
    "a change outside the frame keeps the key" d0
    (digest (with_cell id_out v_out));
  Alcotest.(check string) "the original key is untouched" d0 (digest st)

let test_key_marshal () =
  let cfg, p = member_program () in
  let _, _, calls = recorded_calls cfg p in
  List.iteri
    (fun i ((a, fname, st, binds) as call) ->
      let st', binds' =
        (Marshal.from_string (Marshal.to_string (st, binds) []) 0
          : C.Astate.t * C.Transfer.binds)
      in
      Alcotest.(check string)
        (Printf.sprintf "call %d: survives Marshal" i)
        (snd (key_of cfg p call))
        (snd (key_of cfg p (a, fname, st', binds'))))
    calls

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
              (* the copy hits the entry point and replays its alarms at
                 its own locations *)
              let warm_q, passes =
                with_body_passes (fun () -> C.Analysis.analyze ~cfg:ccfg q)
              in
              check_agrees ~name:cname ~run:"moved copy warm" off_q warm_q;
              check_one_lookup ~name:(cname ^ ": moved copy") warm_q passes;
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

(* every store file of a directory with its inode, mtime and bytes *)
let dir_state dir =
  List.map
    (fun file ->
      let s = Unix.stat file in
      ( file,
        s.Unix.st_ino,
        s.Unix.st_mtime,
        In_channel.with_open_bin file In_channel.input_all ))
    (store_files dir)

(* where the definition of the void function [fn] starts in [src] *)
let def_of ~fn src =
  let hdr = "void " ^ fn ^ "(void) {" in
  let rec find i =
    if i + String.length hdr > String.length src then
      Alcotest.failf "no function %s" fn
    else if String.sub src i (String.length hdr) = hdr then i
    else find (i + 1)
  in
  (find 0, String.length hdr)

let splice src at text =
  String.sub src 0 at ^ text ^ String.sub src at (String.length src - at)

(* insert [text] right after the opening brace of [fn] *)
let insert_in ~fn text src =
  let i, n = def_of ~fn src in
  splice src (i + n) text

(* the dead block perfbench's edited requests add *)
let dead_block src = insert_in ~fn:"stage_5" "\n  { int pb_edit; pb_edit = 6; }" src

let test_noop_warm_run_does_not_write () =
  let src = buggy_fused_src () in
  let p, _ = C.Analysis.compile [ ("fb.c", src) ] in
  let q, _ = C.Analysis.compile [ ("fbm.c", "\n\n\n" ^ src) ] in
  let e, _ = C.Analysis.compile [ ("fbe.c", insert_in ~fn:"stage_0" "\n  { int pb_edit; pb_edit = 6; }" src) ] in
  let cfg = C.Config.default in
  with_private_dir (fun dir ->
      with_cache_driver (fun () ->
          let ccfg =
            { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
          in
          let run prog = cache_stats_exn (C.Analysis.analyze ~cfg:ccfg prog) in
          let cold = run p in
          Alcotest.(check int) "cold run wrote one file" 1
            (List.length (store_files dir));
          let s0 = dir_state dir in
          let warm = run p in
          Alcotest.(check int) "warm run misses" 0 warm.C.Analysis.c_misses;
          Alcotest.(check (float 0.)) "warm save_time" 0.
            warm.C.Analysis.c_save_time;
          Alcotest.(check bool) "store untouched: inodes, mtimes, bytes" true
            (dir_state dir = s0);
          (* the shifted, renamed copy is a no-op warm run too *)
          let moved = run q in
          Alcotest.(check int) "moved copy misses" 0 moved.C.Analysis.c_misses;
          Alcotest.(check bool) "moved copy wrote nothing" true
            (dir_state dir = s0);
          (* an edited copy misses its entry point and hits its
             unchanged stages; it publishes one new file with its new
             keys only, the entry point's among them, and leaves the
             published one alone *)
          let entry_published () =
            let fn =
              I.Fingerprint.summary_fn (I.Fingerprint.make cfg e) "main"
            in
            List.exists
              (fun k -> Some k.C.Transfer.sk_fn = fn)
              (stored_keys dir)
          in
          Alcotest.(check bool) "edited entry not in the store" false
            (entry_published ());
          let edited = run e in
          Alcotest.(check bool) "edited copy misses" true
            (edited.C.Analysis.c_misses > 0);
          Alcotest.(check bool) "edited copy hits its stages" true
            (edited.C.Analysis.c_hits > 0);
          Alcotest.(check bool) "edited entry published" true
            (entry_published ());
          Alcotest.(check bool) "edited copy saved" true
            (edited.C.Analysis.c_save_time > 0.);
          let s1 = dir_state dir in
          Alcotest.(check int) "one new file" 2 (List.length s1);
          Alcotest.(check bool) "the first file is untouched" true
            (List.for_all (fun f -> List.mem f s1) s0);
          Alcotest.(check int) "the store holds both runs' keys"
            (cold.C.Analysis.c_entries + edited.C.Analysis.c_misses)
            (List.length (stored_keys dir));
          Alcotest.(check int) "original still all hits" 0
            (run p).C.Analysis.c_misses;
          Alcotest.(check int) "edited copy now all hits" 0
            (run e).C.Analysis.c_misses))

(* Run [k] with stderr sent to a file; returns its result and what it
   printed there. *)
let with_stderr_captured k =
  let file = Filename.temp_file "astree-stderr" "" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      k
  in
  let err = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  (r, err)

(* a store file of an earlier version, v7 (summaries computed while
   the clock climbed the threshold ladder) or v8 (summaries with a join
   count), must read as foreign: the run warns, degrades to cold, is
   exact, and publishes a file of its own that the next run loads.  The
   old file is a complete one of this version relabelled, so only the
   magic keeps it from being unmarshalled *)
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
              ignore (C.Analysis.analyze ~cfg:ccfg p);
              Alcotest.(check int) "the cold run published a file" 1
                (List.length (store_files dir));
              List.iter
                (fun version ->
                  List.iter
                    (fun f ->
                      let s = In_channel.with_open_bin f In_channel.input_all in
                      let n = String.length store_magic in
                      write_file f
                        (Printf.sprintf "astree-summary-store %s\n" version
                        ^ String.sub s n (String.length s - n)))
                    (store_files dir);
                  let r, err =
                    with_stderr_captured (fun () ->
                        C.Analysis.analyze ~cfg:ccfg p)
                  in
                  Alcotest.(check string)
                    (version ^ ": result identical") (P.Merge.fingerprint off)
                    (P.Merge.fingerprint r);
                  Alcotest.(check int) (version ^ ": nothing loaded") 0
                    (cache_stats_exn r).C.Analysis.c_loaded;
                  let contains sub s =
                    let n = String.length sub in
                    let rec go i =
                      i + n <= String.length s
                      && (String.sub s i n = sub || go (i + 1))
                    in
                    go 0
                  in
                  Alcotest.(check bool) (version ^ ": a bad-magic warning") true
                    (contains "bad magic, ignored" err);
                  (* the republished file has the same index, hence the
                     same name: it replaces the foreign one *)
                  let now = store_files dir in
                  Alcotest.(check bool) (version ^ ": a file of its own") true
                    (now <> []);
                  List.iter check_file_intact now)
                [ "v7"; "v8" ];
              Alcotest.(check bool) "the next run loads it" true
                ((cache_stats_exn (C.Analysis.analyze ~cfg:ccfg p))
                   .C.Analysis.c_loaded > 0))))

(* ---------------- edit-warm: summaries that survive an edit ---------------- *)

(* [base] cold into a fresh store, then [edit] warm over it: the warm
   edit must equal its cache-off result; returns its cache counters *)
let check_edit_warm ~name ?(cfg = C.Config.default) (base : string * string)
    (edit : string * string) =
  let p, _ = C.Analysis.compile [ base ] in
  let q, _ = C.Analysis.compile [ edit ] in
  let off_p = C.Analysis.analyze ~cfg p in
  let off_q = C.Analysis.analyze ~cfg q in
  with_private_dir (fun dir ->
      let ccfg = { cfg with C.Config.summary_cache = C.Config.Cache_dir dir } in
      let cold = C.Analysis.analyze ~cfg:ccfg p in
      Alcotest.(check string) (name ^ ": base cold = off")
        (P.Merge.fingerprint off_p) (P.Merge.fingerprint cold);
      let warm = C.Analysis.analyze ~cfg:ccfg q in
      Alcotest.(check string) (name ^ ": edit warm = off")
        (P.Merge.fingerprint off_q) (P.Merge.fingerprint warm);
      let again = C.Analysis.analyze ~cfg:ccfg p in
      Alcotest.(check string) (name ^ ": base warm again = off")
        (P.Merge.fingerprint off_p) (P.Merge.fingerprint again);
      cache_stats_exn warm)

let fused_member () =
  (G.Generator.generate
     { G.Generator.default with G.Generator.seed = 4; target_lines = 2000; fuse = 16 })
    .G.Generator.source

(* [stages] stage functions, each a cascade of [width] rate-limited
   first-order lags.  Every tap is linearly coupled to its predecessor,
   so at [max_octagon_pack = width] packing puts a whole cascade in one
   octagon pack.  Each stage raises one overflow alarm (its [o] register
   is scaled out of range; [p] is not). *)
let cascade_src ~stages ~width =
  let b = Buffer.create 8192 in
  let add fmt = Printf.bprintf b fmt in
  for s = 0 to stages - 1 do
    add "volatile float u%d;\n" s;
    for v = 0 to width - 1 do
      add "float x%d_%d;\n" s v
    done;
    add "short o%d;\nshort p%d;\n" s s
  done;
  for s = 0 to stages - 1 do
    add "void stage%d(void) {\n  x%d_0 = u%d;\n" s s s;
    for v = 1 to width - 1 do
      add "  x%d_%d = 0.5f * x%d_%d + 0.5f * x%d_%d;\n" s v s v s (v - 1);
      add "  if (x%d_%d - x%d_%d > 0.25f) { x%d_%d = x%d_%d + 0.25f; }\n" s v
        s (v - 1) s v s (v - 1)
    done;
    add "  o%d = (short)(x%d_%d * 65536.0f);\n" s s (width - 1);
    add "  p%d = (short)(x%d_%d * 128.0f);\n}\n" s s (width - 1)
  done;
  add "int main(void) {\n";
  for s = 0 to stages - 1 do
    add "  __astree_input_range(u%d, -1.0, 1.0);\n" s;
    for v = 0 to width - 1 do
      add "  x%d_%d = 0.0f;\n" s v
    done
  done;
  add "  while (1) {\n";
  for s = 0 to stages - 1 do
    add "    stage%d();\n" s
  done;
  add "    __astree_wait_for_clock();\n  }\n  return 0;\n}\n";
  Buffer.contents b

(* The three bases of perfbench's incremental workload, an edited copy
   of the first over its store, a bug-injected fused member, the
   bug-injected 2 kLOC member of the one-shot workload, a loop guard
   right after a computed call and a cascade of 8-wide octagon packs,
   at the shipped memoization threshold. *)
let test_renderings_agree () =
  let min_stmts = !C.Memo.memo_min_stmts in
  let check ?dir ?(cfg = C.Config.default) name src =
    let p, _ = C.Analysis.compile [ (name, src) ] in
    let cfg =
      {
        cfg with
        C.Config.partitioned_functions = F.Preproc.partition_markers src;
      }
    in
    check_warm_equals_cold ~name ~min_stmts ?dir cfg p
  in
  let base seed =
    (G.Generator.generate
       {
         G.Generator.default with
         G.Generator.seed;
         target_lines = 2000;
         fuse = 16;
       })
      .G.Generator.source
  in
  let b0 = base 4 in
  with_private_dir (fun dir ->
      check ~dir "b0.c" b0;
      check ~dir "e0.c" (dead_block b0));
  check "b1.c" (base 5);
  check "b2.c" (base 8);
  check "fb.c" (buggy_fused_src ());
  check "m2.c"
    (G.Generator.generate
       {
         G.Generator.seed = 3;
         target_lines = 2000;
         mix = G.Shapes.all_safe_kinds;
         bug_ratio = 0.05;
         fuse = 1;
       })
      .G.Generator.source;
  check "chain.c" Test_iterator.chain_src;
  check
    ~cfg:{ C.Config.default with C.Config.max_octagon_pack = 8 }
    "cascade.c"
    (cascade_src ~stages:6 ~width:8)

(* A 3-task member at -j 1 and -j 2: each task's entry point is keyed
   under its rely, so a fully warm fixpoint replays one summary per task
   in its last round and matches the cache-off fixpoint. *)
let test_warm_tasks () =
  let shipped = !C.Memo.memo_min_stmts in
  let g =
    G.Generator.generate_tasks
      {
        G.Generator.default with
        G.Generator.target_lines = 1000;
        bug_ratio = 1.0;
      }
      ~tasks:3
  in
  let tasks = g.G.Generator.task_fns in
  let p, _ = C.Analysis.compile [ ("mt.c", g.G.Generator.source) ] in
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "3 tasks -j %d" jobs in
      let cfg =
        {
          C.Config.default with
          C.Config.jobs;
          partitioned_functions = g.G.Generator.partition_fns;
        }
      in
      let fixpoint cfg = Astree_conc.Fixpoint.analyze ~cfg ~tasks p in
      let off = fixpoint cfg in
      (* the rounds follow the guarantees, which replayed summaries
         re-record *)
      let rounds ~run (t : Astree_conc.Fixpoint.t) =
        Alcotest.(check (pair int bool))
          (Printf.sprintf "%s: %s rounds, stabilized" name run)
          (off.Astree_conc.Fixpoint.c_rounds, off.c_stabilized)
          (t.Astree_conc.Fixpoint.c_rounds, t.c_stabilized)
      in
      let off_r = off.Astree_conc.Fixpoint.c_result in
      Alcotest.(check bool) (name ^ ": the member alarms") true
        (C.Analysis.n_alarms off_r > 0);
      with_private_dir (fun dir ->
          with_cache_driver ~min_stmts:shipped (fun () ->
              let ccfg =
                { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
              in
              let cold = fixpoint ccfg in
              check_agrees ~name ~run:"cold" off_r cold.Astree_conc.Fixpoint.c_result;
              rounds ~run:"cold" cold;
              let warm, passes = with_body_passes (fun () -> fixpoint ccfg) in
              check_agrees ~name ~run:"warm" off_r warm.Astree_conc.Fixpoint.c_result;
              rounds ~run:"warm" warm;
              check_one_lookup ~name ~tasks:3 warm.Astree_conc.Fixpoint.c_result
                passes)))
    [ 1; 2 ]

(* A budget trip stops the cold run inside the entry point's capture
   section: the callee summaries computed so far are published, the
   entry point's is not, and the next run starts from them. *)
let test_trip_publishes_no_entry () =
  let src = fused_member () in
  let p, _ = C.Analysis.compile [ ("m.c", src) ] in
  let cfg = C.Config.default in
  let off = C.Analysis.analyze ~cfg p in
  (* the governor's polls of a whole run, to trip half way *)
  let polls = ref 0 in
  let counting () = incr polls in
  let ses = C.Transfer.new_session ~tick:counting () in
  ignore (C.Analysis.analyze ~session:ses ~cfg p);
  let half = !polls / 2 in
  let entry = I.Fingerprint.summary_fn (I.Fingerprint.make cfg p) "main" in
  let shipped = !C.Memo.memo_min_stmts in
  with_private_dir (fun dir ->
      with_cache_driver ~min_stmts:shipped (fun () ->
          let ccfg =
            { cfg with C.Config.summary_cache = C.Config.Cache_dir dir }
          in
          polls := 0;
          let ses =
            C.Transfer.new_session
              ~tick:(fun () ->
                counting ();
                if !polls = half then
                  raise
                    (Astree_robust.Budget.Tripped Astree_robust.Budget.Timeout))
              ()
          in
          (match C.Analysis.analyze ~session:ses ~cfg:ccfg p with
          | _ -> Alcotest.fail "expected a budget trip"
          | exception Astree_robust.Budget.Tripped _ -> ());
          let keys = stored_keys dir in
          Alcotest.(check bool) "callee summaries published" true (keys <> []);
          Alcotest.(check bool) "no entry summary published" false
            (List.exists (fun k -> Some k.C.Transfer.sk_fn = entry) keys);
          let next = C.Analysis.analyze ~cfg:ccfg p in
          Alcotest.(check string) "the next run = off"
            (P.Merge.fingerprint off) (P.Merge.fingerprint next);
          Alcotest.(check bool) "the next run hits what the trip published"
            true
            ((cache_stats_exn next).C.Analysis.c_hits > 0);
          Alcotest.(check bool) "and publishes the entry summary" true
            (List.exists
               (fun k -> Some k.C.Transfer.sk_fn = entry)
               (stored_keys dir))))

(* the first float literal after the header of [fn], multiplied by 2 *)
let change_float_in ~fn src =
  let start, _ = def_of ~fn src in
  let is_digit c = c >= '0' && c <= '9' in
  let rec lit i =
    if src.[i] = '.' && is_digit src.[i - 1] && is_digit src.[i + 1] then begin
      let b = ref (i - 1) in
      while is_digit src.[!b - 1] do decr b done;
      let e = ref (i + 1) in
      while is_digit src.[!e] do incr e done;
      (!b, !e)
    end
    else lit (i + 1)
  in
  let b, e = lit start in
  let v = float_of_string (String.sub src b (e - b)) in
  String.sub src 0 b ^ Printf.sprintf "%.6f" (2. *. v +. 0.5)
  ^ String.sub src e (String.length src - e)

let test_edit_warm_dead_block () =
  let src = fused_member () in
  let cs =
    with_cache_driver (fun () ->
        C.Memo.memo_min_stmts := 30;
        check_edit_warm ~name:"dead block, new file name" ("m.c", src)
          ("e0_005.c", dead_block src))
  in
  let looked = cs.C.Analysis.c_hits + cs.C.Analysis.c_misses in
  Alcotest.(check bool)
    (Printf.sprintf "at least 85%% of lookups hit (%d of %d)"
       cs.C.Analysis.c_hits looked)
    true
    (looked > 0 && 100 * cs.C.Analysis.c_hits >= 85 * looked)

let test_edit_warm_kinds () =
  let src = fused_member () in
  with_cache_driver (fun () ->
      C.Memo.memo_min_stmts := 30;
      List.iter
        (fun (name, edit) ->
          ignore (check_edit_warm ~name ("m.c", src) ("m.c", edit src)))
        [
          ("float constant in shape_90", change_float_in ~fn:"shape_90");
          ("global added at the top", fun s -> "int pb_new_global;\n" ^ s);
          ( "loop added to an earlier function",
            insert_in ~fn:"stage_1"
              "\n  { int pb_i; pb_i = 0; while (pb_i < 3) { pb_i = pb_i + 1; } }" );
          ( "function moved down 3 lines",
            fun s -> splice s (fst (def_of ~fn:"stage_3" s)) "\n\n\n" );
        ])

(* ---------------- frame locality ---------------- *)

(* each program's memoized callee has a frame smaller than the state in
   one of the ways the frame must account for (array cells stay out of
   octagon packs, so no pack pulls the read-only one in), and an
   assertion after
   the call makes a wrongly replayed state show as an alarm; a pad
   global added at the top gives the edit-warm run a second program *)
let frame_programs =
  [
    ( "callee waits for the clock",
      {|
volatile int go;
float x;
int cnt;
void other(void) { if (go) { cnt = cnt + 1; } }
void step(void) {
  x = 0.5f * x + 1.0f;
  __astree_wait_for_clock();
}
int main(void) {
  x = 0.0f; cnt = 0;
  while (1) { other(); step(); __astree_assert(cnt < 1000); }
  return 0;
}
|} );
    ( "callee exit is bottom",
      {|
volatile int sel;
int v;
float z;
void stop(void) { v = 1; __astree_assume(v == 2); }
void work(void) { z = z + 1.0f; if (z > 100.0f) { z = 0.0f; } }
int main(void) {
  v = 0; z = 0.0f;
  while (1) {
    work();
    if (sel) { stop(); }
    __astree_assert(v == 0);
    __astree_wait_for_clock();
  }
  return 0;
}
|} );
    ( "callee with a by-ref param",
      {|
volatile int channel;
int table[4];
float acc;
void store(int *p) { *p = 1; *p = *p + 1; }
void bump(void) { acc = acc + 1.0f; if (acc > 50.0f) { acc = 0.0f; } }
int main(void) {
  int k;
  __astree_input_range(channel, 0.0, 3.0);
  acc = 0.0f;
  while (1) {
    k = channel;
    store(&table[k]);
    bump();
    __astree_assert(table[0] <= 1);
    __astree_wait_for_clock();
  }
  return 0;
}
|} );
    ( "callee reads a global the caller changes",
      {|
float gains[2];
float out;
void apply(void) { out = gains[0] * gains[1]; }
int main(void) {
  gains[0] = 1.0f;
  gains[1] = 1.0f;
  out = 0.0f;
  apply();
  __astree_assert(out <= 2.0f);
  gains[0] = 3.0f;
  out = 0.0f;
  apply();
  __astree_assert(out <= 2.0f);
  return 0;
}
|} );
    ( "callee shares an octagon pack with an untouched global",
      {|
volatile int in;
int x;
int g;
int k;
int tab[9];
void f(void) { __astree_assume(x >= 4); x = x + 0; }
int main(void) {
  __astree_input_range(in, 0.0, 10.0);
  g = in;
  x = g + 2;
  f();
  k = tab[g - 2];
  return 0;
}
|} );
  ]

let test_frame_locality () =
  List.iter
    (fun (name, src) ->
      let cs =
        with_cache_driver (fun () ->
            check_edit_warm ~name ("f.c", src) ("f.c", "int pad_global;\n" ^ src))
      in
      Alcotest.(check bool) (name ^ ": the edit hits") true (cs.C.Analysis.c_hits > 0);
      let p, _ = C.Analysis.compile [ ("f.c", src) ] in
      check_warm_equals_cold ~name C.Config.default p)
    frame_programs

(* The frame's soundness, checked semantically on every call a run
   keys: re-analyzing the callee body from the recorded entry state
   changes nothing outside the frame, and changing every cell outside
   the frame changes nothing of the result inside it. *)
let check_frame_oracle ~name cfg p =
  let _, _, calls = recorded_calls cfg p in
  let fps = I.Fingerprint.make cfg p in
  let cx = ref None in
  let frames a =
    match !cx with
    | Some (a', c) when a' == a -> c
    | _ ->
        let c = named_frames fps a in
        cx := Some (a, c);
        c
  in
  List.iteri
    (fun i (a, fname, st, binds) ->
      let fr = C.Frame.of_call (frames a) ~fname binds in
      let fd =
        match F.Tast.find_fun a.C.Transfer.prog fname with
        | Some fd -> fd
        | None -> Alcotest.failf "no function %s" fname
      in
      let body st =
        a.C.Transfer.alarms.C.Alarm.enabled <- false;
        let o =
          C.Iterator.exec_block a
            ~part:(List.mem fname cfg.C.Config.partitioned_functions)
            ~stack:[ fname ] ~sites:C.Memo.no_sites binds [ st ]
            fd.F.Tast.fd_body
        in
        C.Astate.join
          (List.fold_left C.Astate.join C.Astate.bottom o.C.Iterator.o_norm)
          o.C.Iterator.o_ret
      in
      let what = Printf.sprintf "%s: call %d (%s)" name i fname in
      let inside id = C.Frame.cell_pos fr id <> None in
      let exit_ = body st in
      if not exit_.C.Astate.bot then begin
        C.Env.iter
          (fun id v ->
            if not (inside id) then
              Alcotest.(check bool)
                (Printf.sprintf "%s: cell %d outside the frame unchanged" what id)
                true
                (C.Env.find st.C.Astate.env id = Some v))
          exit_.C.Astate.env;
        C.Ptmap.iter
          (fun pid o ->
            if C.Frame.oct_pos fr pid = None then
              Alcotest.(check bool)
                (Printf.sprintf "%s: octagon %d outside the frame unchanged" what pid)
                true
                (C.Ptmap.find_opt pid st.C.Astate.rel.C.Relstate.octs == Some o
                || Option.fold ~none:false
                     ~some:(Astree_domains.Octagon.equal o)
                     (C.Ptmap.find_opt pid st.C.Astate.rel.C.Relstate.octs)))
          exit_.C.Astate.rel.C.Relstate.octs
      end;
      let st' =
        {
          st with
          C.Astate.env =
            C.Env.fold
              (fun id v env -> if inside id then env else C.Env.set env id (bump v))
              st.C.Astate.env st.C.Astate.env;
        }
      in
      let exit' = body st' in
      Alcotest.(check bool) (what ^ ": same reachability") exit_.C.Astate.bot
        exit'.C.Astate.bot;
      if not exit_.C.Astate.bot then begin
        Array.iter
          (fun id ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: frame cell %d independent of the outside" what id)
              true
              (C.Env.find exit_.C.Astate.env id = C.Env.find exit'.C.Astate.env id))
          (C.Frame.cells fr);
        C.Ptmap.iter
          (fun pid o ->
            if C.Frame.oct_pos fr pid <> None then
              Alcotest.(check bool)
                (Printf.sprintf "%s: frame octagon %d independent of the outside" what pid)
                true
                (Option.fold ~none:false
                   ~some:(Astree_domains.Octagon.equal o)
                   (C.Ptmap.find_opt pid exit'.C.Astate.rel.C.Relstate.octs)))
          exit_.C.Astate.rel.C.Relstate.octs
      end)
    calls;
  List.length calls

let test_frame_oracle () =
  List.iter
    (fun (name, src) ->
      let p, _ = C.Analysis.compile [ ("f.c", src) ] in
      ignore (check_frame_oracle ~name C.Config.default p))
    frame_programs;
  List.iter
    (fun name ->
      match read_example name with
      | None -> ()
      | Some src ->
          let p, _ = C.Analysis.compile [ (name, src) ] in
          ignore (check_frame_oracle ~name C.Config.default p))
    [ "mini_fbw.c"; "filter_bank.c"; "buggy_demo.c" ];
  let cfg, p = member_program () in
  Alcotest.(check bool) "the member keyed calls" true
    (check_frame_oracle ~name:"member" cfg p > 0)

(* ---------------- fingerprints stay local ---------------- *)

let local_src ~f_extra =
  Printf.sprintf
    {|
float h(float x) { return x * 2.0f; }
float f(float x) {
  float y;
  y = x + 1.0f;%s
  return y;
}
float g(float x) {
  float r;
  int i;
  r = h(x);
  i = 0;
  while (i < 3) { r = r + 1.0f; i = i + 1; }
  return r;
}
int main(void) {
  float a;
  a = f(1.0f);
  a = g(a);
  return 0;
}
|}
    f_extra

let test_fp_edit_stays_local () =
  let a = fps_of (local_src ~f_extra:"") in
  List.iter
    (fun (what, extra) ->
      let b = fps_of (local_src ~f_extra:extra) in
      Alcotest.(check bool) (what ^ ": f changed") true
        (fn_exn a "f" <> fn_exn b "f");
      Alcotest.(check string) (what ^ ": g unchanged") (fn_exn a "g") (fn_exn b "g"))
    [
      ("a loop added to f", "\n  { int j; j = 0; while (j < 2) { j = j + 1; } }");
      ("a call returning a value added to f", "\n  y = h(y);");
    ];
  (* an unrolling override keyed by g's dense loop id reaches g's
     fingerprint, and only g's *)
  let p, _ = C.Analysis.compile [ ("t.c", local_src ~f_extra:"") ] in
  let loop_id =
    match F.Tast.find_fun p "g" with
    | None -> Alcotest.fail "no g"
    | Some fd ->
        let id = ref (-1) in
        F.Tast.iter_stmts
          (fun s ->
            match s.F.Tast.sdesc with
            | F.Tast.Swhile (li, _, _) -> id := li.F.Tast.loop_id
            | _ -> ())
          fd.F.Tast.fd_body;
        !id
  in
  let o =
    I.Fingerprint.make
      { C.Config.default with C.Config.loop_unroll_overrides = [ (loop_id, 5) ] }
      p
  in
  Alcotest.(check bool) "override changes g" true (fn_exn a "g" <> fn_exn o "g");
  Alcotest.(check string) "override leaves f" (fn_exn a "f") (fn_exn o "f")

(* Every key the keyed tier hands out equals the key of the same call
   from a fresh frame, which has digested nothing yet: a pack digest a
   frame reuses because the element is [same] as the one it last
   digested at that position is exact.  The fused member runs cold,
   then an edited copy runs over its store. *)
let test_reused_pack_digests_exact () =
  let src = fused_member () in
  let p, _ = C.Analysis.compile [ ("fm.c", src) ] in
  let e, _ =
    C.Analysis.compile
      [ ("fme.c", insert_in ~fn:"stage_0" "\n  { int pb_edit; pb_edit = 6; }" src) ]
  in
  let checked = ref 0 in
  with_private_dir @@ fun dir ->
  with_cache_driver ~min_stmts:!C.Memo.memo_min_stmts (fun () ->
      C.Analysis.cache_driver :=
        Some
          (fun ses pr core ->
            I.Summary.driver ses pr (fun () ->
                (match ses.C.Transfer.ses_keyed with
                | Some k ->
                    let kt_key a ~fname fr binds st =
                      let key = k.C.Transfer.kt_key a ~fname fr binds st in
                      Option.iter
                        (fun (key : C.Transfer.summary_key) ->
                          let fps =
                            I.Fingerprint.make a.C.Transfer.cfg a.C.Transfer.prog
                          in
                          let fresh =
                            C.Frame.of_call (named_frames fps a) ~fname binds
                          in
                          incr checked;
                          Alcotest.(check string)
                            (Printf.sprintf "key %d of %s: fresh frame" !checked
                               fname)
                            (I.Frame.entry_digest (Buffer.create 1024) fps fresh
                               st binds)
                            key.C.Transfer.sk_entry)
                        key;
                      key
                    in
                    ses.C.Transfer.ses_keyed <- Some { k with C.Transfer.kt_key }
                | None -> ());
                core ()));
      let cfg =
        { C.Config.default with C.Config.summary_cache = C.Config.Cache_dir dir }
      in
      (* the store's own tally of a run is the registry's: [Memo] counts
         every keyed lookup in it, [Summary.find] in the run's report *)
      let counted name prog =
        let hits = Astree_obs.Metrics.counter "cache.hits"
        and misses = Astree_obs.Metrics.counter "cache.misses" in
        let h0 = Astree_obs.Metrics.value hits
        and m0 = Astree_obs.Metrics.value misses in
        let c = cache_stats_exn (C.Analysis.analyze ~cfg prog) in
        Alcotest.(check (pair int int))
          (name ^ ": registry hits, misses = the report's")
          (c.C.Analysis.c_hits, c.C.Analysis.c_misses)
          ( Astree_obs.Metrics.value hits - h0,
            Astree_obs.Metrics.value misses - m0 );
        c
      in
      let cold = counted "cold" p in
      let edited = counted "edited" e in
      Alcotest.(check bool) "the cold run keyed calls" true
        (cold.C.Analysis.c_misses > 10);
      Alcotest.(check bool) "the edited copy hit its stages" true
        (edited.C.Analysis.c_hits > 0);
      Alcotest.(check int) "every key checked"
        (cold.C.Analysis.c_hits + cold.C.Analysis.c_misses
        + edited.C.Analysis.c_hits + edited.C.Analysis.c_misses)
        !checked)

(* ---------------- report records ---------------- *)

module Srv = Astree_server

let example name =
  match read_example name with
  | Some src -> src
  | None -> Alcotest.failf "examples/data/%s not found" name

let itv_transfers = Astree_obs.Metrics.counter "itv.transfer"

let record_files dir =
  match Sys.readdir dir with
  | names ->
      Array.to_list names
      |> List.filter (fun f -> Filename.check_suffix f ".report")
      |> List.map (Filename.concat dir)
  | exception Sys_error _ -> []

(* [s] with the number after each of [keys] blanked *)
let mask_numbers keys (s : string) : string =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then ()
    else
      match
        List.find_opt
          (fun k ->
            let l = String.length k in
            i + l <= n && String.sub s i l = k)
          keys
      with
      | Some k ->
          Buffer.add_string b k;
          let j = ref (i + String.length k) in
          while
            !j < n
            && (match s.[!j] with '0' .. '9' | '.' | 'e' | '+' | '-' -> true | _ -> false)
          do
            incr j
          done;
          go !j
      | None ->
          Buffer.add_char b s.[i];
          go (i + 1)
  in
  go 0;
  Buffer.contents b

let mask_times =
  mask_numbers
    [ "\"time\": "; "\"load_time\": "; "\"save_time\": "; "time: "; "load_time: "; "save_time: " ]

(* the JSON and the --explain --verbose text of a report, times masked *)
let rendered (rep : Srv.Report.t) : string * string =
  ( mask_times (Srv.Report.to_json rep),
    mask_times (Fmt.str "%a" (Srv.Report.pp_text ~explain:true ~verbose:true) rep) )

let options ?(jobs = 1) ?(tasks = []) dir =
  {
    Srv.Service.default_options with
    Srv.Service.o_jobs = jobs;
    o_tasks = tasks;
    o_cache = `Dir dir;
  }

let hit_cache =
  {
    C.Analysis.c_hits = 1;
    c_misses = 0;
    c_entries = 0;
    c_loaded = 1;
    c_load_time = 0.;
    c_save_time = 0.;
  }

let tasks_src () =
  (G.Generator.generate_tasks
     { G.Generator.default with seed = 5; target_lines = 1000; bug_ratio = 1.0 }
     ~tasks:3)
    .G.Generator.source

(* A record hit compiles nothing and reports what the run that
   published it reported: JSON and --explain --verbose text equal the
   cold run's with the times masked, the cache block aside, which is
   a fully warm run's; a second, summary-replaying run (no record read)
   reports exactly that block on a program whose entry point is
   memoized.  Over examples, a fused member, a bug-injected member and
   a three-task member, at -j 1 and -j 2. *)
let test_record_hits_equal_cold () =
  Astree_robust.Faultsim.with_suppressed @@ fun () ->
  let inputs =
    List.map
      (fun f -> (f, example f))
      [ "mini_fbw.c"; "buggy_demo.c"; "filter_bank.c" ]
    @ [
        ("fused.c", fused_member ());
        ("bugs.c", buggy_fused_src ());
        ("tasks.c", tasks_src ());
      ]
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun (name, src) ->
          let what = Printf.sprintf "%s -j %d" name jobs in
          let sources = [ (name, src) ] in
          with_private_dir (fun dir ->
              let o = options ~jobs dir in
              let cold = Srv.Service.analyze o ~main:"main" sources in
              Alcotest.(check bool) (what ^ ": the cold run analyzes") true
                (Option.is_some cold.Srv.Service.a_run);
              Alcotest.(check int) (what ^ ": one record") 1
                (List.length (record_files dir));
              let hit, transfers =
                let before = Astree_obs.Metrics.value itv_transfers in
                let a = Srv.Service.analyze o ~main:"main" sources in
                (a, Astree_obs.Metrics.value itv_transfers - before)
              in
              Alcotest.(check bool) (what ^ ": the record answers") true
                (Option.is_none hit.Srv.Service.a_run && transfers = 0);
              let rep = hit.Srv.Service.a_report in
              let json, text = rendered (Srv.Report.strip_cache rep) in
              let cold_json, cold_text =
                rendered (Srv.Report.strip_cache cold.Srv.Service.a_report)
              in
              Alcotest.(check string) (what ^ ": JSON = cold") cold_json json;
              Alcotest.(check string) (what ^ ": text = cold") cold_text text;
              Alcotest.(check int) (what ^ ": exit = cold")
                cold.Srv.Service.a_report.Srv.Report.exit rep.Srv.Report.exit;
              Alcotest.(check bool) (what ^ ": a fully warm run's cache block") true
                (Option.map
                   (fun c -> { c with C.Analysis.c_load_time = 0. })
                   rep.Srv.Report.stats.C.Analysis.s_cache
                = Some hit_cache);
              if name = "fused.c" then begin
                let warm = Srv.Service.analyze ~reuse:false o ~main:"main" sources in
                Alcotest.(check (pair string string))
                  (what ^ ": = the summary-replaying warm run")
                  (rendered warm.Srv.Service.a_report) (rendered rep)
              end))
        inputs)
    [ 1; 2 ]

(* What a report is a function of misses; what it is not still hits. *)
let test_record_key () =
  Astree_robust.Faultsim.with_suppressed @@ fun () ->
  let src = example "mini_fbw.c" in
  let two_mains = src ^ "\nint alt_main(void) { return 0; }\n" in
  let multi =
    "/* astree-task: t1 t2 */\n\
     int g;\n\
     void t1(void) { while (1) { g = g + 1; __astree_wait_for_clock(); } }\n\
     void t2(void) { while (1) { int x = g; __astree_wait_for_clock(); } }\n\
     int main(void) { while (1) { __astree_wait_for_clock(); } }\n"
  in
  with_private_dir (fun dir ->
      let run ?(main = "main") o sources =
        Option.is_none (Srv.Service.analyze o ~main sources).Srv.Service.a_run
      in
      let o = options dir in
      let base = [ ("fbw.c", two_mains) ] in
      ignore (run o base);
      ignore (run o [ ("m.c", multi) ]);
      let flip s i = String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s in
      List.iter
        (fun (what, hits, (main, o, sources)) ->
          Alcotest.(check bool) what hits (run ~main o sources))
        [
          ("the same request hits", true, ("main", o, base));
          ("one source byte misses", false,
            ("main", o, [ ("fbw.c", flip two_mains (String.rindex two_mains '0')) ]));
          ("a renamed file misses", false, ("main", o, [ ("fbw2.c", two_mains) ]));
          ("another --main misses", false, ("alt_main", o, base));
          ("--tasks misses", false, ("main", options ~tasks:[ "t1"; "t2" ] dir, [ ("m.c", multi) ]));
          ("--unroll misses", false, ("main", { o with Srv.Service.o_unroll = 2 }, base));
          ("--no-octagons misses", false, ("main", { o with Srv.Service.o_no_oct = true }, base));
          ("a partition marker misses", false,
            ("main", o, [ ("fbw.c", "/* astree-partition: alt_main */\n" ^ two_mains) ]));
          ("-j 2 hits", true, ("main", options ~jobs:2 dir, base));
          ("--timeout hits", true, ("main", { o with Srv.Service.o_timeout = 100. }, base));
          ("--max-mem hits", true, ("main", { o with Srv.Service.o_max_mem = 4096 }, base));
        ])

(* A degraded run and an interrupted run publish no record. *)
let test_record_not_degraded () =
  Astree_robust.Faultsim.with_suppressed @@ fun () ->
  let sources = [ ("fused.c", fused_member ()) ] in
  with_private_dir (fun dir ->
      let o = { (options dir) with Srv.Service.o_timeout = 1e-6 } in
      let a = Srv.Service.analyze o ~main:"main" sources in
      Alcotest.(check bool) "the run degraded" true
        (a.Srv.Service.a_report.Srv.Report.stats.C.Analysis.s_degraded <> None);
      Alcotest.(check int) "no record" 0 (List.length (record_files dir));
      Astree_robust.Budget.interrupt ();
      Fun.protect ~finally:Astree_robust.Budget.clear_interrupt (fun () ->
          let a = Srv.Service.analyze (options dir) ~main:"main" sources in
          Alcotest.(check int) "interrupted" 130 a.Srv.Service.a_report.Srv.Report.exit);
      Alcotest.(check int) "still no record" 0 (List.length (record_files dir));
      Astree_robust.Budget.interrupt ();
      Fun.protect ~finally:Astree_robust.Budget.clear_interrupt (fun () ->
          match
            Srv.Service.analyze (options dir) ~main:"main" [ ("tasks.c", tasks_src ()) ]
          with
          | _ -> Alcotest.fail "the multi-task run was not interrupted"
          | exception Astree_robust.Budget.Tripped _ -> ());
      Alcotest.(check int) "no record of a multi-task interrupt" 0
        (List.length (record_files dir)))

(* A truncated, bit-flipped or foreign-version record is a miss with one
   warning, and the run publishes a fresh record the next run hits. *)
let test_record_damaged () =
  Astree_robust.Faultsim.with_suppressed @@ fun () ->
  let sources = [ ("mini_fbw.c", example "mini_fbw.c") ] in
  List.iter
    (fun (what, damage) ->
      with_private_dir (fun dir ->
          let o = options dir in
          let cold = Srv.Service.analyze o ~main:"main" sources in
          let file = List.hd (record_files dir) in
          let bytes = In_channel.with_open_bin file In_channel.input_all in
          write_file file (damage bytes);
          let a, err =
            with_stderr_captured (fun () -> Srv.Service.analyze o ~main:"main" sources)
          in
          let warnings =
            List.filter (fun l -> l <> "") (String.split_on_char '\n' err)
          in
          Alcotest.(check int) (what ^ ": one warning") 1 (List.length warnings);
          Alcotest.(check bool) (what ^ ": a miss") true (Option.is_some a.Srv.Service.a_run);
          Alcotest.(check string) (what ^ ": the cold report")
            (fst (rendered (Srv.Report.strip_cache cold.Srv.Service.a_report)))
            (fst (rendered (Srv.Report.strip_cache a.Srv.Service.a_report)));
          let again = Srv.Service.analyze o ~main:"main" sources in
          Alcotest.(check bool) (what ^ ": a fresh record hits") true
            (Option.is_none again.Srv.Service.a_run)))
    [
      ("truncated", fun b -> String.sub b 0 (String.length b / 2));
      ("bit-flipped", fun b ->
          String.mapi (fun i c -> if i = String.length b / 2 then Char.chr (Char.code c lxor 4) else c) b);
      ("wrong version", fun b ->
          (* the header names another format version, the digest is
             recomputed: only the version check stands in the way *)
          let hdr = "astree-report-record\n" ^ Srv.Report.version ^ " " in
          let body = String.sub b 0 (String.length b - 16) in
          let rest = String.sub body (String.length hdr) (String.length body - String.length hdr) in
          let body = "astree-report-record\n0 " ^ rest in
          body ^ Digest.string body);
    ]

(* A record write that fails — here the record's name is taken by a
   directory, so the rename fails after the temporary file was written —
   leaves no temporary file, and the report and exit code are the cold
   run's. *)
let test_record_write_fails () =
  Astree_robust.Faultsim.with_suppressed @@ fun () ->
  let sources = [ ("buggy_demo.c", example "buggy_demo.c") ] in
  with_private_dir (fun dir ->
      let cold = (Srv.Service.analyze (options dir) ~main:"main" sources).Srv.Service.a_report in
      let record = List.hd (record_files dir) in
      Sys.remove record;
      Unix.mkdir record 0o755;
      let a, err =
        with_stderr_captured (fun () -> Srv.Service.analyze (options dir) ~main:"main" sources)
      in
      let rep = a.Srv.Service.a_report in
      Alcotest.(check bool) "a warning" true (err <> "");
      Alcotest.(check string) "the cold report"
        (fst (rendered (Srv.Report.strip_cache cold)))
        (fst (rendered (Srv.Report.strip_cache rep)));
      Alcotest.(check int) "the cold exit code" cold.Srv.Report.exit rep.Srv.Report.exit;
      Array.iter
        (fun f ->
          Alcotest.(check bool) (f ^ ": no temporary file") false
            (Filename.check_suffix f ".tmp"))
        (Sys.readdir dir);
      Unix.rmdir record)

(* Two processes publishing the same key leave one valid record. *)
let test_record_racing_writers () =
  with_private_dir (fun dir ->
      let payload i = String.make (1 lsl 16) (Char.chr (65 + i)) in
      let pids =
        List.init 2 (fun i ->
            match Unix.fork () with
            | 0 ->
                for _ = 1 to 20 do
                  I.Store.publish_record ~dir ~version:"v" "k" (payload i)
                done;
                Unix._exit 0
            | pid -> pid)
      in
      List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
      (match I.Store.find_record ~dir ~version:"v" "k" with
      | Some p ->
          Alcotest.(check bool) "one writer's payload, whole" true
            (p = payload 0 || p = payload 1)
      | None -> Alcotest.fail "no valid record");
      Alcotest.(check (list string)) "one file" [ "k.report" ]
        (Array.to_list (Sys.readdir dir)))

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
    Alcotest.test_case "private-store cache equivalence" `Quick
      test_private_store_equiv;
    Alcotest.test_case "warm = cold: every example" `Quick
      test_warm_all_examples;
    Alcotest.test_case "store: corrupt files degrade to cold" `Quick
      test_store_corruption;
    Alcotest.test_case "store: racing writers never tear" `Quick
      test_store_racing_writers;
    Alcotest.test_case "summary key: framed digest = from scratch" `Quick
      test_key_matches_scratch;
    Alcotest.test_case "summary key: bound, entry, flag change it" `Quick
      test_key_sensitive;
    Alcotest.test_case "summary key: survives Marshal" `Quick
      test_key_marshal;
    Alcotest.test_case "summary key: moved copy warm = off" `Quick
      test_moved_copy_warm_equals_off;
    Alcotest.test_case "summary key: moved caller, by-ref bind warm = off"
      `Quick test_moved_caller_by_ref_warm_equals_off;
    Alcotest.test_case "store: no-op warm run does not write" `Quick
      test_noop_warm_run_does_not_write;
    Alcotest.test_case "store: v7 store reads as foreign" `Quick
      test_old_store_is_foreign;
    Alcotest.test_case "fingerprint: a local edit stays local" `Quick
      test_fp_edit_stays_local;
    Alcotest.test_case "edit-warm: dead block hits >= 85%" `Slow
      test_edit_warm_dead_block;
    Alcotest.test_case "edit-warm: every edit kind warm = off" `Slow
      test_edit_warm_kinds;
    Alcotest.test_case "warm = cold = off: explain and invariant dump" `Quick
      test_renderings_agree;
    Alcotest.test_case "warm = off: 3 tasks, one lookup per task" `Quick
      test_warm_tasks;
    Alcotest.test_case "budget trip publishes no entry summary" `Quick
      test_trip_publishes_no_entry;
    Alcotest.test_case "frame locality: warm = off" `Quick
      test_frame_locality;
    Alcotest.test_case "frame oracle: the outside is neither read nor written"
      `Quick test_frame_oracle;
    Alcotest.test_case "reused pack digests are exact" `Quick
      test_reused_pack_digests_exact;
    Alcotest.test_case "record: a hit equals the cold run" `Slow
      test_record_hits_equal_cold;
    Alcotest.test_case "record: what misses and what hits" `Quick
      test_record_key;
    Alcotest.test_case "record: degraded and interrupted runs publish none"
      `Quick test_record_not_degraded;
    Alcotest.test_case "record: a damaged record is one warning and a miss"
      `Quick test_record_damaged;
    Alcotest.test_case "record: a failed write leaves no temporary" `Quick
      test_record_write_fails;
    Alcotest.test_case "record: racing writers leave one valid record" `Quick
      test_record_racing_writers;
    Alcotest.test_case "store: a save reads only files published since open"
      `Quick test_save_reads_new_files;
  ]
