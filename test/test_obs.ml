(* Observability tests: the metrics registry (counters, gauges,
   histograms, snapshot deltas) behaves as documented; the event tracer
   rings, captures and serializes correctly; and the determinism
   contract holds — a -j4 run with worker delta shipping reports exactly
   the counters and the event set of the sequential run, two warm cache
   runs report byte-identical metrics, and every alarm carries a
   provenance whose call chain matches the inlining stack. *)

module C = Astree_core
module F = Astree_frontend
module I = Astree_incremental
module P = Astree_parallel
module M = Astree_obs.Metrics
module T = Astree_obs.Trace

(* the registry and the trace buffer are global: scrub both around every
   test so suites can run in any order *)
let fresh k =
  M.reset ();
  T.clear ();
  let en0 = !T.enabled and wt0 = !T.with_time in
  Fun.protect
    ~finally:(fun () ->
      T.enabled := en0;
      T.with_time := wt0;
      T.clear ();
      M.reset ())
    k

(* ---------------- metrics registry ---------------- *)

let test_counters () =
  fresh @@ fun () ->
  let c = M.counter "test.counter" in
  Alcotest.(check int) "fresh counter is zero" 0 (M.value c);
  M.incr c;
  M.add c 41;
  Alcotest.(check int) "incr + add accumulate" 42 (M.value c);
  Alcotest.(check int) "same name, same entry" 42
    (M.value (M.counter "test.counter"));
  (* a name registered as a counter cannot come back as a gauge *)
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: test.counter registered with another kind")
    (fun () -> M.set_gauge "test.counter" 1)

let test_snapshot_diff_absorb () =
  fresh @@ fun () ->
  let c = M.counter "test.c" in
  let h = M.histogram "test.h" in
  M.add c 10;
  M.observe h 3;
  M.set_gauge "test.g" 7;
  let before = M.snapshot () in
  M.add c 5;
  M.observe h 3;
  M.observe h 100;
  M.set_gauge "test.g" 9;
  let delta = M.diff before in
  (* the delta names only counters and histograms — gauges are
     coordinator state and never travel in worker deltas *)
  Alcotest.(check (list string))
    "gauges excluded from the delta" [ "test.c"; "test.h" ] (M.names delta);
  (* replaying the delta on top of the current registry doubles exactly
     the increments made after the snapshot *)
  M.absorb delta;
  Alcotest.(check int) "absorb adds the counter delta" 20 (M.value c);
  Alcotest.(check (option int)) "gauge untouched by absorb" (Some 9)
    (M.gauge_value "test.g")

let test_render_json_stable () =
  fresh @@ fun () ->
  M.add (M.counter "b.two") 2;
  M.add (M.counter "a.one") 1;
  M.observe (M.histogram "h.x") 0;
  M.observe (M.histogram "h.x") 6;
  M.set_gauge "g.y" 3;
  ignore (M.start ());
  let s1 = M.render_json ~timers:false () in
  let s2 = M.render_json ~timers:false () in
  Alcotest.(check string) "render is pure" s1 s2;
  let contains sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "keys sorted" true
    (contains "\"a.one\": 1, \"b.two\": 2" s1);
  Alcotest.(check bool) "gauge present" true (contains "\"g.y\": 3" s1);
  (* 0 -> bucket 0, 6 -> bucket 2 (2^2 <= 7 < 2^3) *)
  Alcotest.(check bool) "log2 histogram buckets" true
    (contains "\"h.x\": [1,0,1]" s1);
  Alcotest.(check bool) "timers omitted" false (contains "\"timers\"" s1)

let test_reset_named () =
  fresh @@ fun () ->
  let c = M.counter "test.rn" in
  M.add c 5;
  M.reset_named "test.rn";
  M.reset_named "never.registered";
  Alcotest.(check int) "zeroed, registration survives" 0 (M.value c)

(* ---------------- event tracer ---------------- *)

let with_trace ?(capacity = 65536) k =
  fresh @@ fun () ->
  let cap0 = !T.capacity in
  T.capacity := capacity;
  T.enabled := true;
  T.with_time := false;
  Fun.protect ~finally:(fun () -> T.capacity := cap0) k

let kinds () = List.map (fun e -> e.T.ev_kind) (T.events ())

let test_ring_eviction () =
  with_trace ~capacity:4 @@ fun () ->
  for i = 1 to 10 do
    T.emit (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check (list string))
    "ring keeps the most recent capacity events"
    [ "e7"; "e8"; "e9"; "e10" ] (kinds ())

let test_eviction_counter () =
  with_trace ~capacity:4 @@ fun () ->
  let dropped = M.counter "trace.dropped" in
  let before = M.value dropped in
  for i = 1 to 10 do
    T.emit (Printf.sprintf "e%d" i)
  done;
  (* 10 events through a 4-slot ring: 6 evictions, each one counted —
     the counter is the only witness that the ring overflowed *)
  Alcotest.(check int) "evictions land in trace.dropped" 6
    (M.value dropped - before)

let test_capture_suspends_eviction () =
  with_trace ~capacity:4 @@ fun () ->
  T.emit "before";
  let mark = T.capture_begin () in
  for i = 1 to 10 do
    T.emit (Printf.sprintf "c%d" i)
  done;
  let captured = T.capture_end mark in
  Alcotest.(check int)
    "capture saw every event despite the tiny ring" 10 (List.length captured);
  Alcotest.(check (list string))
    "captured in order, capture-local"
    [ "c1"; "c2"; "c3"; "c4"; "c5"; "c6"; "c7"; "c8"; "c9"; "c10" ]
    (List.map (fun e -> e.T.ev_kind) captured)

let test_to_json () =
  with_trace @@ fun () ->
  T.emit "k.point" ~loc:"a.c:3:1"
    ~args:
      [
        ("s", T.S "he\"llo"); ("i", T.I 42); ("f", T.F 1.5); ("b", T.B true);
      ];
  match T.events () with
  | [ e ] ->
      Alcotest.(check string) "JSONL shape, escaped strings"
        "{\"kind\": \"k.point\", \"phase\": \"P\", \"loc\": \"a.c:3:1\", \
         \"t\": 0.000000, \"args\": {\"s\": \"he\\\"llo\", \"i\": 42, \
         \"f\": 1.500000, \"b\": true}}"
        (T.to_json e)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_span_balance () =
  with_trace @@ fun () ->
  T.span_begin "p";
  T.emit "x";
  T.span_end "p";
  Alcotest.(check (list string))
    "phases in order"
    [ "B"; "P"; "E" ]
    (List.map
       (fun e ->
         match e.T.ev_phase with T.Pbegin -> "B" | T.Pend -> "E" | T.Ppoint -> "P")
       (T.events ()))

(* ---------------- determinism: -j1 = -j4, warm = warm ------------- *)

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

let with_mini_fbw k =
  match read_example "mini_fbw.c" with
  | None -> Alcotest.skip ()
  | Some src -> k src

(* run [f] under tracing and return (result, sorted canonical event
   lines, metrics render).  Kinds in [drop_kinds] are wall-clock
   artifacts and excluded from the event comparison (everything else
   must then compare byte-for-byte). *)
let observe ?(drop_kinds = []) (f : unit -> C.Analysis.result) =
  M.reset ();
  T.clear ();
  T.enabled := true;
  T.with_time := false;
  let mark = T.capture_begin () in
  let r = f () in
  let evs = T.capture_end mark in
  T.enabled := false;
  let dropped k = List.exists (fun p -> p = k) drop_kinds in
  let lines =
    evs
    |> List.filter (fun e -> not (dropped e.T.ev_kind))
    |> List.map T.to_json |> List.sort String.compare
  in
  let metrics = M.render_json ~timers:false () in
  (r, lines, metrics)

(* -j4 must report exactly the sequential run's counters, histograms
   and gauges, with no exclusion list, and the same event multiset
   sorted by canonical line (kind, loc and args included). *)
let test_determinism_jobs () =
  with_mini_fbw @@ fun src ->
  fresh @@ fun () ->
  let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
  let cfg =
    {
      C.Config.default with
      C.Config.partitioned_functions = [ "select_gain" ];
    }
  in
  let r1, ev1, m1 =
    observe (fun () -> C.Analysis.analyze ~cfg:{ cfg with C.Config.jobs = 1 } p)
  in
  let r4, ev4, m4 =
    observe (fun () -> C.Analysis.analyze ~cfg:{ cfg with C.Config.jobs = 4 } p)
  in
  Alcotest.(check string)
    "same result" (P.Merge.fingerprint r1) (P.Merge.fingerprint r4);
  Alcotest.(check bool) "the -j1 run produced events" true (ev1 <> []);
  (if Sys.getenv_opt "ASTREE_OBS_DEBUG" <> None then
     let dump name l =
       let oc = open_out ("/tmp/obs-" ^ name) in
       List.iter (fun s -> output_string oc (s ^ "\n")) l;
       close_out oc
     in
     dump "ev1" ev1; dump "ev4" ev4);
  Alcotest.(check (list string)) "same event set" ev1 ev4;
  Alcotest.(check string) "same metrics, byte for byte" m1 m4

let with_cache_driver k =
  I.Summary.register ();
  let min0 = !C.Iterator.memo_min_stmts in
  C.Iterator.memo_min_stmts := 0;
  Fun.protect
    ~finally:(fun () ->
      C.Analysis.cache_driver := None;
      C.Iterator.memo_min_stmts := min0)
    (fun () -> Astree_robust.Faultsim.with_suppressed k)

(* two warm runs from the same store perform the same hits in the same
   order: identical cache.hit/cache.miss event streams and identical
   metrics (cache.load/cache.save carry wall-clock seconds and are
   excluded; the load/save timings also only live in timer entries,
   which ~timers:false already omits) *)
let test_determinism_warm () =
  with_mini_fbw @@ fun src ->
  fresh @@ fun () ->
  with_cache_driver @@ fun () ->
  let dir = Filename.temp_file "astree-obs-cache" "" in
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
      let p, _ = C.Analysis.compile [ ("mini_fbw.c", src) ] in
      let cfg =
        { C.Config.default with C.Config.summary_cache = C.Config.Cache_dir dir }
      in
      ignore (C.Analysis.analyze ~cfg p);
      let drop_kinds = [ "cache.load"; "cache.save" ] in
      let warm () = C.Analysis.analyze ~cfg p in
      let r1, ev1, m1 = observe ~drop_kinds warm in
      let r2, ev2, m2 = observe ~drop_kinds warm in
      Alcotest.(check string)
        "same result" (P.Merge.fingerprint r1) (P.Merge.fingerprint r2);
      Alcotest.(check bool) "warm runs hit the cache" true
        (List.exists (fun l -> String.length l >= 20 &&
                               String.sub l 0 20 = "{\"kind\": \"cache.hit\"") ev1);
      Alcotest.(check (list string)) "same event set" ev1 ev2;
      Alcotest.(check string) "same metrics, byte for byte" m1 m2)

(* ---------------- alarm provenance ---------------- *)

let two_level_src =
  {|
volatile float input;
float out;

float f(float x) {
  return 1.0f / x;
}

float h(float x) {
  return f(x);
}

int main(void) {
  __astree_input_range(input, -1.0, 1.0);
  out = h(input);
  return 0;
}
|}

(* the alarm fires two inlinings deep: its recorded chain must be the
   iterator's stack at the faulting statement, innermost first *)
let test_provenance_chain () =
  fresh @@ fun () ->
  let p, _ = C.Analysis.compile [ ("t.c", two_level_src) ] in
  let r = C.Analysis.analyze p in
  let div =
    List.filter
      (fun (a : C.Alarm.t) -> a.C.Alarm.a_kind = C.Alarm.Div_by_zero)
      r.C.Analysis.r_alarms
  in
  match div with
  | [ a ] -> (
      match a.C.Alarm.a_prov with
      | None -> Alcotest.fail "division alarm carries no provenance"
      | Some pr ->
          Alcotest.(check (list string))
            "call chain, innermost first"
            [ "f"; "h"; "main" ]
            pr.C.Alarm.p_chain;
          Alcotest.(check bool) "raising domain recorded" true
            (pr.C.Alarm.p_domain <> "");
          Alcotest.(check bool) "abstract operands recorded" true
            (pr.C.Alarm.p_operands <> []);
          let text = Fmt.str "%a" C.Alarm.pp_explain a in
          let contains sub s =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length s
              && (String.sub s i n = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "pp_explain renders the chain" true
            (contains "f <- h <- main" text))
  | l -> Alcotest.failf "expected exactly one division alarm, got %d"
           (List.length l)

(* provenance is presentation-only: it must not perturb alarm identity,
   so the dedup/merge fingerprint ignores it *)
let test_provenance_not_in_fingerprint () =
  fresh @@ fun () ->
  let loc = F.Loc.make ~file:"t.c" ~line:3 ~col:1 in
  let bare =
    { C.Alarm.a_kind = C.Alarm.Div_by_zero; a_loc = loc; a_msg = "m";
      a_prov = None }
  in
  let rich =
    {
      bare with
      C.Alarm.a_prov =
        Some
          {
            C.Alarm.p_chain = [ "f"; "main" ];
            p_domain = "octagon";
            p_operands = [ ("x", "[0, 1]") ];
          };
    }
  in
  Alcotest.(check int) "compare ignores provenance" 0
    (C.Alarm.compare bare rich);
  Alcotest.(check string) "pp ignores provenance"
    (Fmt.str "%a" C.Alarm.pp bare)
    (Fmt.str "%a" C.Alarm.pp rich)

let suite =
  [
    Alcotest.test_case "metrics: counters" `Quick test_counters;
    Alcotest.test_case "metrics: snapshot/diff/absorb" `Quick
      test_snapshot_diff_absorb;
    Alcotest.test_case "metrics: render stability" `Quick
      test_render_json_stable;
    Alcotest.test_case "metrics: reset_named" `Quick test_reset_named;
    Alcotest.test_case "trace: ring eviction" `Quick test_ring_eviction;
    Alcotest.test_case "trace: eviction bumps trace.dropped" `Quick
      test_eviction_counter;
    Alcotest.test_case "trace: capture suspends eviction" `Quick
      test_capture_suspends_eviction;
    Alcotest.test_case "trace: JSONL serialization" `Quick test_to_json;
    Alcotest.test_case "trace: span balance" `Quick test_span_balance;
    Alcotest.test_case "determinism: -j1 = -j4" `Quick test_determinism_jobs;
    Alcotest.test_case "determinism: warm = warm" `Quick
      test_determinism_warm;
    Alcotest.test_case "provenance: two-level call chain" `Quick
      test_provenance_chain;
    Alcotest.test_case "provenance: outside alarm identity" `Quick
      test_provenance_not_in_fingerprint;
  ]
