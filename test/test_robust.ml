(* Robustness-subsystem tests: the degradation ladder is sound (alarms
   of every degraded configuration are a superset of the full run's on
   every example program), budget trips degrade instead of aborting, an
   interrupt yields a partial result, and every Faultsim injection point
   — worker crash, worker hang, truncated reply, cache corrupt-read,
   cache write-failure — exercises its recovery path. *)

module C = Astree_core
module Conc = Astree_conc
module F = Astree_frontend
module G = Astree_gen
module I = Astree_incremental
module P = Astree_parallel
module R = Astree_robust

(* ---------------- helpers ---------------- *)

(* tests run from the dune sandbox; walk up to the repository root *)
let read_example name =
  let rec find dir depth =
    let cand = Filename.concat dir (Filename.concat "examples/data" name) in
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

let example_names = [ "mini_fbw.c"; "filter_bank.c"; "buggy_demo.c" ]

let alarm_keys (r : C.Analysis.result) =
  List.map
    (fun (a : C.Alarm.t) -> (a.C.Alarm.a_kind, a.C.Alarm.a_loc))
    r.C.Analysis.r_alarms

let is_superset ~big ~small =
  List.for_all (fun k -> List.mem k big) small

let degraded_exn (r : C.Analysis.result) =
  match r.C.Analysis.r_stats.C.Analysis.s_degraded with
  | Some d -> d
  | None -> Alcotest.fail "expected a degraded result"

let member_program () =
  let g =
    G.Generator.generate
      {
        G.Generator.default with
        G.Generator.seed = 5;
        target_lines = 600;
        fuse = 8;
      }
  in
  let p, _ = C.Analysis.compile [ ("m.c", g.G.Generator.source) ] in
  ( {
      C.Config.default with
      C.Config.partitioned_functions = g.G.Generator.partition_fns;
    },
    p )

(* a 3-task member with shared variables *)
let tasks_member () =
  let g =
    G.Generator.generate_tasks
      { G.Generator.default with seed = 5; target_lines = 300; bug_ratio = 0.5 }
      ~tasks:3
  in
  (fst (C.Analysis.compile [ ("mt.c", g.G.Generator.source) ]),
   g.G.Generator.task_fns)

let with_env var value k =
  let saved = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var saved) k

let with_tmpdir k =
  let dir = Filename.temp_file "astree-robust" "" in
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

let with_cache_driver k =
  I.Summary.register ();
  let min0 = !C.Memo.memo_min_stmts in
  C.Memo.memo_min_stmts := 0;
  Fun.protect
    ~finally:(fun () ->
      C.Analysis.cache_driver := None;
      C.Memo.memo_min_stmts := min0)
    k

(* the store files of a directory *)
let store_files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sums")
    |> List.map (Filename.concat dir)

(* ---------------- budget ---------------- *)

let test_budget_poll () =
  R.Budget.disarm ();
  R.Budget.poll ();
  (* a deadline in the past trips on the next poll *)
  R.Budget.arm ~deadline:(Unix.gettimeofday () -. 1.) ();
  (match R.Budget.poll () with
  | () -> Alcotest.fail "expected Tripped Timeout"
  | exception R.Budget.Tripped R.Budget.Timeout -> ()
  | exception _ -> Alcotest.fail "wrong exception");
  R.Budget.disarm ();
  R.Budget.poll ();
  (* a 1 MiB watermark is below any live OCaml major heap *)
  R.Budget.arm ~max_mem_mb:1 ();
  (match R.Budget.poll () with
  | () -> Alcotest.fail "expected Tripped Memory"
  | exception R.Budget.Tripped R.Budget.Memory -> ()
  | exception _ -> Alcotest.fail "wrong exception");
  R.Budget.disarm ();
  (* the interrupt flag wins over everything and is consumed explicitly *)
  R.Budget.interrupt ();
  (match R.Budget.poll () with
  | () -> Alcotest.fail "expected Tripped Interrupted"
  | exception R.Budget.Tripped R.Budget.Interrupted -> ());
  R.Budget.clear_interrupt ();
  R.Budget.poll ()

(* the iterator actually ticks the installed hook during an analysis *)
let test_tick_hook_fires () =
  match read_example "mini_fbw.c" with
  | None -> Alcotest.skip ()
  | Some src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let ticks = ref 0 in
      let ses = C.Transfer.new_session () in
      ses.C.Transfer.ses_tick_hook <- Some (fun () -> incr ticks);
      ignore (C.Analysis.analyze ~session:ses p);
      Alcotest.(check bool) "hook called during analysis" true (!ticks > 0)

(* ---------------- degradation ladder soundness ---------------- *)

(* For every example program and every ladder step: the degraded
   configuration's alarms must cover the full configuration's.  This is
   the property that makes shedding sound to ship: degrading can cry
   wolf, it can never go quiet about a real error. *)
let test_ladder_superset () =
  List.iter
    (fun name ->
      match read_example name with
      | None -> ()
      | Some src ->
          let p, _ = C.Analysis.compile [ (name, src) ] in
          let cfg = C.Config.default in
          let full = C.Analysis.analyze ~cfg p in
          for level = 1 to R.Degrade.max_level do
            let deg =
              C.Analysis.analyze ~cfg:(R.Degrade.config_at ~level cfg) p
            in
            Alcotest.(check bool)
              (Fmt.str "%s: level %d alarms cover the full run's" name level)
              true
              (is_superset ~big:(alarm_keys deg) ~small:(alarm_keys full))
          done)
    example_names

let test_timeout_degrades () =
  let cfg, p = member_program () in
  let full = R.Degrade.analyze ~cfg p in
  (* a budget far below the full-run cost forces the ladder *)
  let r = R.Degrade.analyze ~cfg:{ cfg with C.Config.timeout = 0.02 } p in
  let d = degraded_exn r in
  Alcotest.(check string) "tripped on the clock" "timeout"
    d.C.Analysis.dg_reason;
  Alcotest.(check bool) "reached a ladder step" true
    (d.C.Analysis.dg_level >= 1 && d.C.Analysis.dg_level <= 3);
  Alcotest.(check bool) "degraded alarms cover the full run's" true
    (is_superset ~big:(alarm_keys r) ~small:(alarm_keys full));
  (* no budget, no degradation marker *)
  Alcotest.(check bool) "unconstrained run is not degraded" true
    (full.C.Analysis.r_stats.C.Analysis.s_degraded = None);
  (* an armed budget that never trips changes nothing *)
  let armed = R.Degrade.analyze ~cfg:{ cfg with C.Config.timeout = 3600. } p in
  Alcotest.(check string) "armed, untripped run = plain analysis"
    (P.Merge.fingerprint (C.Analysis.analyze ~cfg p))
    (P.Merge.fingerprint armed);
  Alcotest.(check bool) "armed, untripped run is not degraded" true
    (armed.C.Analysis.r_stats.C.Analysis.s_degraded = None)

let test_memory_degrades () =
  let cfg, p = member_program () in
  (* 1 MiB is below the heap before the analysis even starts: every
     level trips and the final disarmed rerun delivers the result *)
  let r = R.Degrade.analyze ~cfg:{ cfg with C.Config.max_mem_mb = 1 } p in
  let d = degraded_exn r in
  Alcotest.(check string) "tripped on memory" "memory" d.C.Analysis.dg_reason;
  Alcotest.(check int) "cascaded to the last step" R.Degrade.max_level
    d.C.Analysis.dg_level

let test_interrupt_partial () =
  let cfg, p = member_program () in
  (* flag preset: the first tick of the analysis sees it — the same path
     a SIGINT mid-run takes, minus the asynchrony *)
  R.Budget.interrupt ();
  Fun.protect
    ~finally:(fun () -> R.Budget.clear_interrupt ())
    (fun () ->
      let r = R.Degrade.analyze ~cfg p in
      let d = degraded_exn r in
      Alcotest.(check string)
        "marked interrupted" "interrupted" d.C.Analysis.dg_reason;
      Alcotest.(check bool)
        "partial run never claims to finish" true
        (C.Astate.is_bot r.C.Analysis.r_final));
  Alcotest.(check bool) "flag consumed" false (R.Budget.interrupt_pending ())

(* shed_packs_above actually removes wide packs, and only wide ones *)
let test_shed_filter () =
  let cfg, p = member_program () in
  let full = C.Packing.compute cfg p in
  let shed =
    C.Packing.compute { cfg with C.Config.shed_packs_above = Some 3 } p
  in
  Alcotest.(check bool) "some octagon pack survives" true
    (List.length shed.C.Packing.octs > 0);
  Alcotest.(check bool) "wide packs were dropped" true
    (List.length shed.C.Packing.octs < List.length full.C.Packing.octs);
  List.iter
    (fun (op : C.Packing.oct_pack) ->
      Alcotest.(check bool) "every kept pack is narrow" true
        (Array.length op.C.Packing.op_vars <= 3))
    shed.C.Packing.octs

(* ---------------- faultsim: spec, determinism ---------------- *)

(* run [k] with file descriptor 2 redirected: its result and what it
   wrote there *)
let capture_stderr k =
  flush stderr;
  let path = Filename.temp_file "astree-robust" ".err" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
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
  let out = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (r, out)

let fire_pattern n p =
  R.Faultsim.reset_counters ();
  List.init n (fun _ -> R.Faultsim.fires p)

let bits l = String.concat "" (List.map (fun b -> if b then "1" else "0") l)

let test_faultsim_spec () =
  with_env "ASTREE_FAULTS" "5:worker_crash=0.5,cache_corrupt" (fun () ->
      R.Faultsim.reset_counters ();
      let d = R.Faultsim.describe () in
      Alcotest.(check bool) "seed parsed" true
        (String.length d > 0 && d <> "faults: off");
      Alcotest.(check bool) "prob-1 point always fires" true
        (R.Faultsim.fires R.Faultsim.Cache_corrupt);
      Alcotest.(check bool) "unarmed point never fires" false
        (R.Faultsim.fires R.Faultsim.Worker_hang));
  (* a point no build knows any more (conn_drop was a daemon fault) is
     skipped with a warning; the rest of the spec stays armed *)
  with_env "ASTREE_FAULTS" "5:worker_crash=0.5,conn_drop" (fun () ->
      let armed, err = capture_stderr R.Faultsim.describe in
      Alcotest.(check string) "only worker_crash armed"
        "faults: seed 5, worker_crash=0.50" armed;
      Alcotest.(check string) "retired point warned about"
        "astree: warning: ASTREE_FAULTS: bad injection point \"conn_drop\", \
         skipped\n"
        err);
  (* the schedule a spec replays: these 32 decisions are pinned, so CI's
     chaos legs inject exactly the faults they always did *)
  with_env "ASTREE_FAULTS" "11:worker_crash=0.5" (fun () ->
      Alcotest.(check string) "seed 11 worker_crash schedule"
        "00001110101001110100001111000011"
        (bits (fire_pattern 32 R.Faultsim.Worker_crash)));
  R.Faultsim.reset_counters ();
  with_env "ASTREE_FAULTS" "not-a-spec" (fun () ->
      Alcotest.(check bool) "malformed spec disables injection" false
        (R.Faultsim.fires R.Faultsim.Worker_crash))

let test_faultsim_deterministic () =
  R.Faultsim.install ~seed:11 [ (R.Faultsim.Worker_crash, 0.5) ];
  Fun.protect
    ~finally:(fun () ->
      R.Faultsim.clear ();
      R.Faultsim.reset_counters ())
    (fun () ->
      let a = fire_pattern 200 R.Faultsim.Worker_crash in
      let b = fire_pattern 200 R.Faultsim.Worker_crash in
      Alcotest.(check (list bool)) "same seed, same schedule" a b;
      Alcotest.(check bool) "schedule actually mixes" true
        (List.mem true a && List.mem false a);
      R.Faultsim.install ~seed:12 [ (R.Faultsim.Worker_crash, 0.5) ];
      let c = fire_pattern 200 R.Faultsim.Worker_crash in
      Alcotest.(check bool) "different seed, different schedule" true (a <> c))

let test_faultsim_suppression () =
  R.Faultsim.install ~seed:1 [ (R.Faultsim.Worker_crash, 1.0) ];
  Fun.protect
    ~finally:(fun () ->
      R.Faultsim.clear ();
      R.Faultsim.reset_counters ())
    (fun () ->
      Alcotest.(check bool) "armed" true
        (R.Faultsim.fires R.Faultsim.Worker_crash);
      R.Faultsim.with_suppressed (fun () ->
          Alcotest.(check bool) "masked" false
            (R.Faultsim.fires R.Faultsim.Worker_crash));
      Alcotest.(check bool) "armed again" true
        (R.Faultsim.fires R.Faultsim.Worker_crash))

(* ---------------- faultsim: pool injection points ---------------- *)

(* each test arms its point before forking (workers inherit the spec)
   and clears it before the next pool is created *)
let with_faults ~seed probs k =
  R.Faultsim.install ~seed probs;
  Fun.protect
    ~finally:(fun () ->
      R.Faultsim.clear ();
      R.Faultsim.reset_counters ())
    k

let test_inject_worker_crash () =
  with_faults ~seed:3
    [ (R.Faultsim.Worker_crash, 1.0) ]
    (fun () ->
      P.Pool.with_pool ~jobs:2
        (fun x -> x + 1)
        (fun pool ->
          let rs = P.Pool.map pool [ 1; 2; 3 ] in
          Alcotest.(check int) "every job dies with its worker" 3
            (List.length (List.filter Result.is_error rs))));
  (* a clean pool created after [clear] works *)
  P.Pool.with_pool ~jobs:2
    (fun x -> x + 1)
    (fun pool ->
      Alcotest.(check bool) "recovered after clear" true
        (P.Pool.map pool [ 1; 2 ] = [ Ok 2; Ok 3 ]))

let test_inject_worker_hang () =
  let saved = !R.Faultsim.hang_seconds in
  R.Faultsim.hang_seconds := 5.;
  Fun.protect
    ~finally:(fun () -> R.Faultsim.hang_seconds := saved)
    (fun () ->
      with_faults ~seed:4
        [ (R.Faultsim.Worker_hang, 1.0) ]
        (fun () ->
          P.Pool.with_pool ~jobs:2
            (fun x -> x + 1)
            (fun pool ->
              match P.Pool.map ~timeout:0.3 pool [ 1 ] with
              | [ Error e ] ->
                  Alcotest.(check string)
                    "the coordinator's deadline ends the hang"
                    "worker timed out" e
              | _ -> Alcotest.fail "expected a timed-out job")))

let test_inject_reply_truncate () =
  with_faults ~seed:5
    [ (R.Faultsim.Reply_truncate, 1.0) ]
    (fun () ->
      P.Pool.with_pool ~jobs:2
        (fun x -> x * 10)
        (fun pool ->
          match P.Pool.map pool [ 1 ] with
          | [ Error e ] ->
              (* a half-written reply must read as a dead worker, never
                 as a garbled Ok *)
              Alcotest.(check string) "short read = crash" "worker crashed" e
          | _ -> Alcotest.fail "expected the truncated reply to fail"))

(* workers forked while [k] runs: the pool's own, plus one replacement
   per worker that died *)
let forks_during k =
  let file = Filename.temp_file "astree-forks" "" in
  P.Pool.at_child_fork :=
    Some
      (fun () ->
        Out_channel.with_open_gen [ Open_append; Open_wronly ] 0o600 file
          (fun oc -> Out_channel.output_char oc 'x'));
  Fun.protect
    ~finally:(fun () ->
      P.Pool.at_child_fork := None;
      Sys.remove file)
    (fun () ->
      k ();
      (Unix.stat file).Unix.st_size)

(* injected faults or none, a pooled multi-task run must still match
   the -j 1 run: crashed workers and truncated replies end in a retry or
   an in-process recompute, never in a different result.  Both faults
   kill their worker, so a replacement fork shows that one fired. *)
let test_equiv_under_injection () =
  let p, tasks = tasks_member () in
  let fp r = P.Merge.fingerprint r.Conc.Fixpoint.c_result in
  let seq = fp (Conc.Fixpoint.analyze ~tasks p) in
  List.iter
    (fun fault_seed ->
      let forks =
        forks_during (fun () ->
            with_faults ~seed:fault_seed
              [
                (R.Faultsim.Worker_crash, 0.3);
                (R.Faultsim.Reply_truncate, 0.2);
              ]
              (fun () ->
                R.Faultsim.reset_counters ();
                let par =
                  Conc.Fixpoint.analyze
                    ~cfg:{ C.Config.default with C.Config.jobs = 2 }
                    ~tasks p
                in
                Alcotest.(check string)
                  (Fmt.str "fault seed %d: identical despite the injected \
                            faults" fault_seed)
                  seq (fp par)))
      in
      Alcotest.(check bool)
        (Fmt.str "fault seed %d: a fault killed a worker (%d forks)"
           fault_seed forks)
        true (forks > 2))
    [ 1; 6 ]

(* ---------------- faultsim: store injection points ---------------- *)

let test_inject_cache_corrupt () =
  match read_example "mini_fbw.c" with
  | None -> Alcotest.skip ()
  | Some src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      with_tmpdir (fun dir ->
          with_cache_driver (fun () ->
              let ccfg =
                {
                  C.Config.default with
                  C.Config.summary_cache = C.Config.Cache_dir dir;
                }
              in
              let cold = C.Analysis.analyze ~cfg:ccfg p in
              with_faults ~seed:6
                [ (R.Faultsim.Cache_corrupt, 1.0) ]
                (fun () ->
                  let warm = C.Analysis.analyze ~cfg:ccfg p in
                  Alcotest.(check string)
                    "corrupt read degrades to cold, same result"
                    (P.Merge.fingerprint cold) (P.Merge.fingerprint warm);
                  match warm.C.Analysis.r_stats.C.Analysis.s_cache with
                  | Some cs ->
                      Alcotest.(check int) "nothing loaded" 0
                        cs.C.Analysis.c_loaded
                  | None -> Alcotest.fail "expected cache stats")))

let test_inject_cache_write () =
  match read_example "mini_fbw.c" with
  | None -> Alcotest.skip ()
  | Some src ->
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      with_tmpdir (fun dir ->
          with_cache_driver (fun () ->
              let ccfg =
                {
                  C.Config.default with
                  C.Config.summary_cache = C.Config.Cache_dir dir;
                }
              in
              let off = C.Analysis.analyze ~cfg:C.Config.default p in
              with_faults ~seed:7
                [ (R.Faultsim.Cache_write, 1.0) ]
                (fun () ->
                  let r = C.Analysis.analyze ~cfg:ccfg p in
                  Alcotest.(check string)
                    "failed save never changes the result"
                    (P.Merge.fingerprint off) (P.Merge.fingerprint r));
              Alcotest.(check (list string)) "no store file written" []
                (store_files dir);
              (* the aborted write must not leak its temporary either *)
              Array.iter
                (fun f ->
                  Alcotest.(check bool)
                    (f ^ ": no temp leftover")
                    false
                    (Filename.check_suffix f ".tmp"))
                (Sys.readdir dir)))

(* physically corrupt and mid-write-truncated stores: both degrade to
   cold with byte-identical results (satellite of the chaos test) *)
let test_store_corrupt_and_truncated () =
  match read_example "filter_bank.c" with
  | None -> Alcotest.skip ()
  | Some src ->
      let p, _ = C.Analysis.compile [ ("filter_bank.c", src) ] in
      (* physical damage, not injection: env-armed faults would stop the
         cold run from populating the store in the first place *)
      R.Faultsim.with_suppressed @@ fun () ->
      with_tmpdir (fun dir ->
          with_cache_driver (fun () ->
              let ccfg =
                {
                  C.Config.default with
                  C.Config.summary_cache = C.Config.Cache_dir dir;
                }
              in
              let cold = C.Analysis.analyze ~cfg:ccfg p in
              let file =
                match store_files dir with
                | [ f ] -> f
                | _ -> Alcotest.fail "expected one store file"
              in
              let entries =
                match cold.C.Analysis.r_stats.C.Analysis.s_cache with
                | Some cs -> cs.C.Analysis.c_entries
                | None -> Alcotest.fail "expected cache stats"
              in
              let blob = In_channel.with_open_bin file In_channel.input_all in
              (* [loaded]: how many summaries the damaged file may still
                 give; the file a degraded run publishes is removed so
                 that each check sees the damaged file alone *)
              let check_degraded name ~loaded =
                List.iter
                  (fun f -> if f <> file then Sys.remove f)
                  (store_files dir);
                let r = C.Analysis.analyze ~cfg:ccfg p in
                Alcotest.(check string)
                  (name ^ ": byte-identical to cold")
                  (P.Merge.fingerprint cold) (P.Merge.fingerprint r);
                match r.C.Analysis.r_stats.C.Analysis.s_cache with
                | Some cs ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: loaded %d, at most %d" name
                         cs.C.Analysis.c_loaded loaded)
                      true
                      (cs.C.Analysis.c_loaded <= loaded)
                | None -> Alcotest.fail "expected cache stats"
              in
              (* bit rot in the middle of the summaries: the damaged one
                 fails its digest and is recomputed *)
              let rotten = Bytes.of_string blob in
              let mid = Bytes.length rotten / 2 in
              Bytes.set rotten mid
                (Char.chr (Char.code (Bytes.get rotten mid) lxor 0xFF));
              Out_channel.with_open_bin file (fun oc ->
                  Out_channel.output_bytes oc rotten);
              check_degraded "corrupt" ~loaded:(entries - 1);
              (* a write that stopped halfway: the index is gone *)
              Out_channel.with_open_bin file (fun oc ->
                  Out_channel.output_string oc
                    (String.sub blob 0 (String.length blob / 2)));
              check_degraded "truncated" ~loaded:0))

(* ---------------- multi-task runs under the budget ---------------- *)

(* A multi-task run honours --timeout like a single-task one: the
   fixpoint is rerun down the ladder and the result is marked degraded,
   which the CLI reports as exit 3.  Its alarms still cover the full
   run's. *)
let test_multitask_timeout () =
  let p, tasks = tasks_member () in
  let full = Conc.Fixpoint.analyze ~tasks p in
  let cfg = { C.Config.default with C.Config.timeout = 1e-4 } in
  let r = (Conc.Fixpoint.analyze ~cfg ~tasks p).Conc.Fixpoint.c_result in
  let d = degraded_exn r in
  Alcotest.(check string) "timeout recorded" "timeout" d.C.Analysis.dg_reason;
  Alcotest.(check int) "exit 3" 3 (Astree_server.Report.exit_code r);
  Alcotest.(check bool) "alarms cover the full run" true
    (is_superset ~big:(alarm_keys r)
       ~small:(alarm_keys full.Conc.Fixpoint.c_result))

(* Multi-task rounds take the scheduler's fault policy: with every
   worker dying on every job, each per-task run is retried once, then
   recomputed in-process and counted — the result is the -j 1 one. *)
let test_multitask_worker_crash () =
  let p, tasks = tasks_member () in
  let fp r = P.Merge.fingerprint r.Conc.Fixpoint.c_result in
  let seq = Conc.Fixpoint.analyze ~tasks p in
  let recomputed = Astree_obs.Metrics.counter "par.recomputed" in
  let v0 = Astree_obs.Metrics.value recomputed in
  let par =
    with_faults ~seed:0
      [ (R.Faultsim.Worker_crash, 1.0) ]
      (fun () ->
        Conc.Fixpoint.analyze
          ~cfg:{ C.Config.default with C.Config.jobs = 2 }
          ~tasks p)
  in
  Alcotest.(check string) "identical to -j 1" (fp seq) (fp par);
  Alcotest.(check int) "every per-task run recomputed, counted"
    (List.length tasks * par.Conc.Fixpoint.c_rounds)
    (Astree_obs.Metrics.value recomputed - v0)

(* An interrupt at -j 1 (no pool to poll it) reaches the per-task
   iterator tick and escapes as [Tripped Interrupted], which the CLI
   turns into exit 130. *)
let test_multitask_interrupt () =
  let p, tasks = tasks_member () in
  R.Budget.interrupt ();
  Fun.protect ~finally:R.Budget.clear_interrupt (fun () ->
      match Conc.Fixpoint.analyze ~tasks p with
      | _ -> Alcotest.fail "expected Tripped Interrupted"
      | exception R.Budget.Tripped R.Budget.Interrupted -> ())

(* A pool respawns a worker from the coordinator, whose fault counters
   never move: a replacement must not replay the faults that killed its
   predecessor, or one unlucky spec fails every job of a one-worker
   pool *)
let test_respawned_workers_move_on () =
  with_faults ~seed:11
    [ (R.Faultsim.Worker_crash, 0.2); (R.Faultsim.Reply_truncate, 0.15) ]
    (fun () ->
      P.Pool.with_pool ~jobs:1
        (fun x -> x + 1)
        (fun pool ->
          let rs = List.concat_map (fun i -> P.Pool.map pool [ i ]) (List.init 8 Fun.id) in
          let ok = List.filter Result.is_ok rs in
          Alcotest.(check bool) "some jobs answered" true (ok <> []);
          Alcotest.(check bool) "the answers are right" true
            (List.for_all2
               (fun i r -> match r with Ok v -> v = i + 1 | Error _ -> true)
               (List.init 8 Fun.id) rs)))

let suite =
  [
    Alcotest.test_case "budget: poll trips and clears" `Quick test_budget_poll;
    Alcotest.test_case "budget: iterator ticks the hook" `Quick
      test_tick_hook_fires;
    Alcotest.test_case "ladder: alarms superset on every example" `Slow
      test_ladder_superset;
    Alcotest.test_case "ladder: shed filter keeps narrow packs" `Quick
      test_shed_filter;
    Alcotest.test_case "degrade: timeout sheds, stays sound" `Slow
      test_timeout_degrades;
    Alcotest.test_case "degrade: memory watermark cascades" `Quick
      test_memory_degrades;
    Alcotest.test_case "degrade: interrupt yields partial result" `Quick
      test_interrupt_partial;
    Alcotest.test_case "faultsim: env spec parsing" `Quick test_faultsim_spec;
    Alcotest.test_case "faultsim: deterministic schedules" `Quick
      test_faultsim_deterministic;
    Alcotest.test_case "faultsim: suppression masks points" `Quick
      test_faultsim_suppression;
    Alcotest.test_case "inject: multi-task worker crash" `Quick
      test_multitask_worker_crash;
    Alcotest.test_case "inject: worker crash" `Quick test_inject_worker_crash;
    Alcotest.test_case "inject: worker hang" `Quick test_inject_worker_hang;
    Alcotest.test_case "inject: truncated reply" `Quick
      test_inject_reply_truncate;
    Alcotest.test_case "inject: -j equivalence under faults" `Slow
      test_equiv_under_injection;
    Alcotest.test_case "inject: cache corrupt read" `Quick
      test_inject_cache_corrupt;
    Alcotest.test_case "inject: cache write failure" `Quick
      test_inject_cache_write;
    Alcotest.test_case "store: corrupt + truncated degrade to cold" `Quick
      test_store_corrupt_and_truncated;
    Alcotest.test_case "multi-task: timeout degrades, exit 3" `Quick
      test_multitask_timeout;
    Alcotest.test_case "multi-task: interrupt at -j 1 escapes" `Quick
      test_multitask_interrupt;
    Alcotest.test_case "inject: respawned workers move on" `Quick
      test_respawned_workers_move_on;
  ]
