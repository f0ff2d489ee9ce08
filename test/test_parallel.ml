(* Parallel-subsystem tests: the worker pool survives exceptions,
   crashes and timeouts, and the deterministic merge reproduces the
   sequential collector's policy.  The pooled analysis path is checked
   where it runs, on multi-task programs (test_concurrency,
   test_robust). *)

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

let test_merge_alarms () =
  let merged =
    P.Merge.alarms
      [
        [ al C.Alarm.Div_by_zero 9 "first"; al C.Alarm.Int_overflow 3 "a" ];
        [ al C.Alarm.Div_by_zero 9 "second"; al C.Alarm.Float_overflow 1 "b" ];
      ]
  in
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
  ]
