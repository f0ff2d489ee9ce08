(* Parallel-subsystem tests: the worker pool survives exceptions,
   crashes and timeouts, absorbing alarms in job order reproduces the
   sequential collector's policy, and a main loop split in two
   processes reports what one process reports.  The pooled analysis
   path is checked where it runs, on multi-task programs
   (test_concurrency, test_robust). *)

module C = Astree_core
module F = Astree_frontend
module P = Astree_parallel
module R = Astree_robust

(* The pool unit tests below assert exact Ok/Error patterns, so they
   mask fault injection ([Faultsim.with_suppressed]): the suite stays
   green under a global ASTREE_FAULTS chaos run. *)
let no_faults = R.Faultsim.with_suppressed

(* ---------------- pool ---------------- *)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "job failed: %s" e

let test_pool_order () =
  no_faults @@ fun () ->
  P.Pool.with_pool ~jobs:3
    (fun x -> x * x)
    (fun pool ->
      let rs = P.Pool.map pool [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
      Alcotest.(check (list int))
        "squares in job order"
        [ 1; 4; 9; 16; 25; 36; 49; 64; 81; 100 ]
        (List.map ok_exn rs))

let test_pool_exception () =
  no_faults @@ fun () ->
  P.Pool.with_pool ~jobs:2
    (fun x -> if x = 3 then failwith "boom" else x + 1)
    (fun pool ->
      let rs = P.Pool.map pool [ 1; 2; 3; 4 ] in
      (match List.nth rs 2 with
      | Error e ->
          Alcotest.(check bool) "carries the message" true
            (String.length e > 0)
      | Ok _ -> Alcotest.fail "expected a failed job");
      Alcotest.(check int) "other jobs succeed" 3
        (List.length (List.filter Result.is_ok rs)))

let test_pool_crash_respawn () =
  no_faults @@ fun () ->
  P.Pool.with_pool ~jobs:2
    (fun x -> if x = 2 then Unix._exit 7 else 10 * x)
    (fun pool ->
      (match P.Pool.map pool [ 1; 2; 3 ] with
      | [ Ok 10; Error _; Ok 30 ] -> ()
      | _ -> Alcotest.fail "expected [Ok 10; Error _; Ok 30]");
      (* the dead worker was respawned: the pool keeps working *)
      Alcotest.(check bool) "usable after a crash" true
        (P.Pool.map pool [ 5; 6 ] = [ Ok 50; Ok 60 ]))

let test_pool_timeout () =
  no_faults @@ fun () ->
  P.Pool.with_pool ~jobs:2
    (fun x ->
      if x = 2 then Unix.sleepf 10.;
      x)
    (fun pool ->
      match P.Pool.map ~timeout:0.4 pool [ 1; 2; 3 ] with
      | [ Ok 1; Error e; Ok 3 ] ->
          Alcotest.(check bool) "reported as timeout" true
            (e = "worker timed out")
      | _ -> Alcotest.fail "expected only job 2 to time out")

(* A reply that does not marshal comes back as an [Error] naming the
   cause, and the worker that produced it stays alive for the next
   job. *)
type reply = Pid of int | Fn of (int -> int)

let test_pool_unmarshallable_reply () =
  no_faults @@ fun () ->
  P.Pool.with_pool ~jobs:1
    (fun x -> if x = 0 then Fn succ else Pid (Unix.getpid ()))
    (fun pool ->
      let pid = ok_exn (List.hd (P.Pool.map pool [ 1 ])) in
      (match P.Pool.map pool [ 0 ] with
      | [ Error e ] ->
          Alcotest.(check bool) "names the cause" true
            (String.starts_with ~prefix:"reply does not marshal: " e)
      | _ -> Alcotest.fail "expected the closure reply to fail");
      Alcotest.(check bool) "the same worker serves the next job" true
        (P.Pool.map pool [ 1 ] = [ Ok pid ]))

(* ---------------- merge ---------------- *)

let loc line = F.Loc.make ~file:"t.c" ~line ~col:1

let al kind line msg : C.Alarm.t =
  { C.Alarm.a_kind = kind; a_loc = loc line; a_msg = msg; a_prov = None }

(* The combined context of a multi-task run absorbs each run's alarms
   in job order into its collector ([Transfer.absorb]). *)
let test_merge_alarms () =
  let c = C.Alarm.make_collector () in
  List.iter (C.Alarm.absorb c)
    [
      [ al C.Alarm.Div_by_zero 9 "first"; al C.Alarm.Int_overflow 3 "a" ];
      [ al C.Alarm.Div_by_zero 9 "second"; al C.Alarm.Float_overflow 1 "b" ];
    ];
  let merged = C.Alarm.to_list c in
  Alcotest.(check (list string))
    "sorted by location, first duplicate wins"
    [ "b@1"; "a@3"; "first@9" ]
    (List.map
       (fun (a : C.Alarm.t) ->
         Fmt.str "%s@%d" a.C.Alarm.a_msg a.C.Alarm.a_loc.F.Loc.line)
       merged)

let test_merge_states () =
  Alcotest.(check bool) "empty join is bottom" true
    (C.Astate.is_bot (P.Merge.join_states []));
  Alcotest.(check bool) "bottom is the unit" true
    (C.Astate.is_bot (P.Merge.join_states [ C.Astate.bottom; C.Astate.bottom ]))

(* ---------------- split main loop ---------------- *)

module G = Astree_gen
module Srv = Astree_server
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace

(* [genfamily --kloc kloc --seed seed --bugs bugs --fuse fuse] *)
let genfamily ?(bugs = 0.0) ?(fuse = 1) ~kloc ~seed () =
  (G.Generator.generate
     {
       G.Generator.seed;
       target_lines = int_of_float (kloc *. 1000.);
       mix = G.Shapes.all_safe_kinds;
       bug_ratio = bugs;
       fuse;
     })
    .G.Generator.source

(* What [astree -j jobs] reports on [src]: the JSON report without its
   time, the --explain lines, the --dump-invariants --census text and
   every counter but the [par.*] ones; and the [par.*] counters.  [tweak]
   edits the configuration; [split] replaces the split hook. *)
let observe ?(timeout = 0.) ?(tweak = Fun.id) ?split ~jobs src =
  let sources = [ ("m.c", src) ] in
  let cfg =
    tweak
      {
        (Srv.Service.config_of Srv.Service.default_options ~sources) with
        C.Config.jobs;
        timeout;
      }
  in
  let p, _ = C.Analysis.compile sources in
  let m0 = Metrics.snapshot () in
  let r =
    match split with
    | None -> P.Scheduler.analyze ~cfg p
    | Some sp ->
        let session =
          C.Transfer.new_session ~split:sp ?tick:(R.Degrade.tick cfg) ()
        in
        R.Degrade.analyze ~session ~cfg p
  in
  let delta = Metrics.diff m0 in
  let count n = Option.value ~default:0 (Metrics.find_int delta n) in
  let report =
    Srv.Report.to_json
      (Srv.Report.of_result
         {
           r with
           C.Analysis.r_stats =
             { r.C.Analysis.r_stats with C.Analysis.s_time = 0. };
         })
  in
  let explain = List.map (Fmt.str "%a" C.Alarm.pp_explain) r.C.Analysis.r_alarms in
  let dump =
    Fmt.str "%a%s"
      Fmt.(option C.Invariant_census.pp)
      (C.Invariant_census.main_loop_census r)
      (C.Invariant_dump.to_string r)
  in
  let counters =
    List.filter_map
      (fun n ->
        if String.starts_with ~prefix:"par." n then None
        else Option.map (fun v -> (n, v)) (Metrics.find_int delta n))
      (Metrics.names delta)
  in
  ( (report, explain, dump),
    counters,
    (count "par.split_loops", count "par.recomputed"),
    Srv.Report.exit_code r )

let same_report what (r1, e1, d1) (r2, e2, d2) =
  Alcotest.(check string) (what ^ ": JSON report") r1 r2;
  Alcotest.(check (list string)) (what ^ ": --explain") e1 e2;
  Alcotest.(check string) (what ^ ": --dump-invariants --census") d1 d2

let test_split_equal () =
  no_faults @@ fun () ->
  List.iter
    (fun (what, src, splits) ->
      let o1, c1, _, _ = observe ~jobs:1 src in
      let o2, c2, (split, recomputed), _ = observe ~jobs:2 src in
      same_report what o1 o2;
      Alcotest.(check (list (pair string int))) (what ^ ": counters") c1 c2;
      Alcotest.(check int) (what ^ ": par.split_loops") splits split;
      Alcotest.(check int) (what ^ ": par.recomputed") 0 recomputed)
    [
      ("--kloc 1 --seed 1", genfamily ~kloc:1. ~seed:1 (), 1);
      ("--kloc 2 --seed 3 --bugs 0.05", genfamily ~bugs:0.05 ~kloc:2. ~seed:3 (), 1);
      (* the stage functions of a fused member have disjoint frames as
         well: its main loop splits too *)
      ("--kloc 2 --seed 1 --fuse 16", genfamily ~fuse:16 ~kloc:2. ~seed:1 (), 1);
    ]

(* [f ()] and the trace events it emitted, without their time. *)
let traced f =
  let en0 = !Trace.enabled and wt0 = !Trace.with_time in
  Trace.enabled := true;
  Trace.with_time := false;
  let mark = Trace.capture_begin () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Trace.enabled := en0;
        Trace.with_time := wt0)
      f
  in
  (r, List.map Trace.to_json (Trace.capture_end mark))

(* A split that ends early runs the loop again alone: the report, every
   counter and the trace are the -j 1 ones, and [par.*] read [splits]
   and [recomputed]. *)
let check_fallback what ?tweak ?split ~recomputed src =
  let (o1, c1, _, _), t1 =
    no_faults (fun () -> traced (fun () -> observe ?tweak ~jobs:1 src))
  in
  let (o2, c2, (s, r), _), t2 = traced (fun () -> observe ?tweak ?split ~jobs:2 src) in
  same_report what o1 o2;
  Alcotest.(check (list (pair string int))) (what ^ ": counters") c1 c2;
  Alcotest.(check (list string)) (what ^ ": trace") t1 t2;
  Alcotest.(check int) (what ^ ": par.split_loops") 1 s;
  Alcotest.(check int) (what ^ ": par.recomputed") recomputed r

(* A helper that dies at once: the loop runs again in the parent, which
   reports the -j 1 result and counts the recomputation.  Without
   unrolling, the parent first hears of it in the fixpoint's iteration
   mode, whose alarms are off. *)
let test_split_crash () =
  let src = genfamily ~bugs:0.05 ~kloc:2. ~seed:3 () in
  R.Faultsim.install ~seed:0 [ (R.Faultsim.Worker_crash, 1.0) ];
  Fun.protect ~finally:R.Faultsim.clear (fun () ->
      check_fallback "crashed helper" ~recomputed:1 src;
      check_fallback "crashed helper, --unroll 0"
        ~tweak:(fun cfg -> { cfg with C.Config.loop_unroll = 0 })
        ~recomputed:1 src)

(* A helper that tears its first message (a vote, half written before it
   dies): the parent reads a lost helper, never a garbled vote. *)
let test_split_torn () =
  let src = genfamily ~bugs:0.05 ~kloc:2. ~seed:3 () in
  R.Faultsim.install ~seed:0 [ (R.Faultsim.Reply_truncate, 1.0) ];
  Fun.protect ~finally:R.Faultsim.clear (fun () ->
      check_fallback "torn helper message" ~recomputed:1 src)

(* The split hook, with a helper that dies before its [n]th vote. *)
let dying_after n : C.Transfer.split =
  {
    C.Transfer.sp_run =
      (fun ~helper parent ->
        P.Split.split.C.Transfer.sp_run
          ~helper:(fun peer ->
            let votes = ref 0 in
            helper
              {
                peer with
                C.Transfer.pe_exchange =
                  (fun v ->
                    incr votes;
                    if !votes >= n then Unix._exit 9;
                    peer.C.Transfer.pe_exchange v);
              })
          parent);
  }

(* A helper lost in the middle of the widening iterations. *)
let test_split_lost () =
  no_faults @@ fun () ->
  check_fallback "helper lost at its 8th vote" ~split:(dying_after 8)
    ~recomputed:1
    (genfamily ~bugs:0.05 ~kloc:2. ~seed:3 ())

(* A main loop whose body reaches bottom (a call fails an assertion on
   every path) ends the split in both halves: the loop runs again alone,
   and as no fault did it, [par.recomputed] stays 0. *)
let test_split_bottom () =
  no_faults @@ fun () ->
  check_fallback "body at bottom" ~recomputed:0
    {|int a;
int b;
int c;
void f(void) { a = a + 1; if (a > 100) { a = 0; } }
void g(void) { b = 1; __astree_assert(b == 0); }
void h(void) { c = c + 2; if (c > 50) { c = 0; } }
void main(void) {
  while (1) {
    f();
    h();
    g();
    __astree_wait_for_clock();
  }
}
|}

(* The children of this process, where Linux lists them. *)
let children () =
  let pid = Unix.getpid () in
  match open_in (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | ic ->
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
      List.sort compare (String.split_on_char ' ' (String.trim line))
  | exception Sys_error _ -> []

(* A budget that trips mid-loop: the split run degrades or finishes, and
   its helper is reaped. *)
let test_split_timeout () =
  let src = genfamily ~kloc:4. ~seed:2 () in
  let before = children () in
  let _, _, (split, _), code = observe ~timeout:0.05 ~jobs:2 src in
  Alcotest.(check bool) "a helper was forked" true (split >= 1);
  Alcotest.(check bool) "exit 0 or 3" true (code = 0 || code = 3);
  Alcotest.(check (list string)) "no helper left" before (children ())

(* A per-task run does not split: [Scheduler.analyze ~itf] at jobs 2
   forks no helper, even under an interference context that shares
   nothing, and finds what the split run finds. *)
let test_itf_unsplit () =
  no_faults @@ fun () ->
  let p, _ = C.Analysis.compile [ ("m.c", genfamily ~kloc:1. ~seed:1 ()) ] in
  let cfg = { C.Config.default with C.Config.jobs = 2 } in
  let run ?itf () =
    let m0 = Metrics.snapshot () in
    let r = P.Scheduler.analyze ?itf ~cfg p in
    ( P.Merge.fingerprint r,
      Option.value ~default:0
        (Metrics.find_int (Metrics.diff m0) "par.split_loops") )
  in
  let f_split, split = run () in
  Alcotest.(check int) "without ~itf: par.split_loops" 1 split;
  let itf =
    {
      C.Transfer.itf_rely = Hashtbl.create 1;
      itf_shared = Hashtbl.create 1;
    }
  in
  let f_itf, split = run ~itf () in
  Alcotest.(check int) "with ~itf: par.split_loops" 0 split;
  Alcotest.(check string) "the same fingerprint" f_split f_itf

let suite =
  [
    Alcotest.test_case "pool: ordered map" `Quick test_pool_order;
    Alcotest.test_case "pool: exception -> Error" `Quick test_pool_exception;
    Alcotest.test_case "pool: crash + respawn" `Quick test_pool_crash_respawn;
    Alcotest.test_case "pool: timeout" `Quick test_pool_timeout;
    Alcotest.test_case "merge: alarm dedup + sort" `Quick test_merge_alarms;
    Alcotest.test_case "merge: state join" `Quick test_merge_states;
    Alcotest.test_case "pool: closure reply -> Error" `Quick
      test_pool_unmarshallable_reply;
    Alcotest.test_case "split main loop: -j 2 = -j 1" `Quick test_split_equal;
    Alcotest.test_case "split main loop: crashed helper" `Quick
      test_split_crash;
    Alcotest.test_case "split main loop: torn helper message" `Quick
      test_split_torn;
    Alcotest.test_case "split main loop: helper lost mid-fixpoint" `Quick
      test_split_lost;
    Alcotest.test_case "split main loop: body at bottom" `Quick
      test_split_bottom;
    Alcotest.test_case "split main loop: timeout reaps the helper" `Quick
      test_split_timeout;
    Alcotest.test_case "per-task run: no split" `Quick test_itf_unsplit;
  ]
