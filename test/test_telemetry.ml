(* Telemetry tests: request-id generation, Prometheus name/label
   hygiene, byte-stable exposition rendering, rolling quantiles, and
   access-log rotation atomicity.  All in-process — the daemon-side
   wiring (rid echo, /metrics over HTTP) is exercised in
   test_server.ml. *)

module Srv = Astree_server
module T = Srv.Telemetry
module Metrics = Astree_obs.Metrics

let has_sub (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---- request ids ------------------------------------------------- *)

let test_gen_id () =
  let n = 1000 in
  let tbl = Hashtbl.create n in
  for _ = 1 to n do
    let id = T.gen_id () in
    Alcotest.(check bool) ("fresh id " ^ id) false (Hashtbl.mem tbl id);
    Hashtbl.replace tbl id ();
    (* shape: 'r' then hex, '-', hex — safe inside JSON and log greps *)
    Alcotest.(check bool) ("id shape " ^ id) true
      (String.length id > 2
      && id.[0] = 'r'
      && String.for_all
           (function 'r' | '0' .. '9' | 'a' .. 'f' | '-' -> true | _ -> false)
           id)
  done;
  Alcotest.(check int) "all distinct" n (Hashtbl.length tbl)

(* ---- exposition hygiene ------------------------------------------ *)

let test_prom_name () =
  List.iter
    (fun (raw, want) ->
      Alcotest.(check string) ("sanitize " ^ raw) want
        (Metrics.prom_name raw))
    [
      ("cache.hits", "cache_hits");
      ("srv.dedup_hits", "srv_dedup_hits");
      ("iter:widen", "iter:widen");
      ("a-b c", "a_b_c");
      ("9lives", "_9lives");
      ("ok_name_42", "ok_name_42");
      ("", "_");
    ]

let test_prom_label () =
  List.iter
    (fun (raw, want) ->
      Alcotest.(check string) ("escape " ^ String.escaped raw) want
        (Metrics.prom_label raw))
    [
      ("plain", "plain");
      ("back\\slash", "back\\\\slash");
      ("quo\"te", "quo\\\"te");
      ("new\nline", "new\\nline");
      ("\\\"\n", "\\\\\\\"\\n");
    ]

(* ---- rendering --------------------------------------------------- *)

(* a telemetry sink fed a fixed request mix at fixed instants *)
let fixed_sink () =
  let t = T.create ~now:1000. () in
  let obs ~now rid verb outcome q s =
    T.observe t ~now
      {
        T.rc_rid = rid;
        rc_verb = verb;
        rc_digest = "d0";
        rc_outcome = outcome;
        rc_queue_s = q;
        rc_service_s = s;
        rc_cache_hits = 3;
      }
  in
  obs ~now:1001. "r1" "analyze" `Ok 0.01 0.2;
  obs ~now:1002. "r2" "analyze" `Ok 0.02 0.4;
  obs ~now:1003. "r3" "analyze" `Dedup 0.3 0.;
  obs ~now:1004. "r4" "status" `Ok 0. 0.001;
  obs ~now:1005. "r5" "analyze" `Shed 0. 0.;
  t

let test_render_stable () =
  (* equal inputs yield byte-identical expositions — across calls and
     across independently built sinks *)
  let snap = Metrics.snapshot () in
  let t1 = fixed_sink () and t2 = fixed_sink () in
  let a = T.render_prometheus t1 ~now:1010. snap in
  let b = T.render_prometheus t1 ~now:1010. snap in
  let c = T.render_prometheus t2 ~now:1010. snap in
  Alcotest.(check string) "idempotent render" a b;
  Alcotest.(check string) "sink-independent render" a c

let test_render_content () =
  let t = fixed_sink () in
  let body = T.render_prometheus t ~now:1010. (Metrics.snapshot ()) in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("exposition has " ^ sub) true (has_sub body sub))
    [
      "# TYPE astreed_up gauge";
      "astreed_up 1\n";
      "astreed_uptime_seconds 10";
      "astreed_requests_total{outcome=\"ok\",verb=\"analyze\"} 2";
      "astreed_requests_total{outcome=\"dedup\",verb=\"analyze\"} 1";
      "astreed_requests_total{outcome=\"shed\",verb=\"analyze\"} 1";
      "astreed_requests_total{outcome=\"ok\",verb=\"status\"} 1";
      "# TYPE astreed_request_duration_seconds histogram";
      "le=\"0.001\"";
      "le=\"+Inf\"";
      "astreed_request_duration_seconds_count{verb=\"analyze\"} 4";
      "# TYPE astreed_request_latency_seconds summary";
      "quantile=\"0.5\"";
      "quantile=\"0.99\"";
    ];
  (* families are sorted by name: the TYPE headers appear in order *)
  let headers =
    String.split_on_char '\n' body
    |> List.filter (fun l -> String.length l > 7 && String.sub l 0 7 = "# TYPE ")
  in
  Alcotest.(check bool) "several families" true (List.length headers > 3);
  Alcotest.(check bool) "families sorted" true
    (List.sort compare headers = headers);
  (* every non-comment line is NAME{labels} VALUE or NAME VALUE *)
  String.split_on_char '\n' body
  |> List.iter (fun l ->
         if l <> "" && l.[0] <> '#' then
           match String.index_opt l ' ' with
           | None -> Alcotest.failf "malformed sample line: %s" l
           | Some i ->
               let name = String.sub l 0 i in
               let name =
                 match String.index_opt name '{' with
                 | Some j -> String.sub name 0 j
                 | None -> name
               in
               Alcotest.(check string)
                 ("metric name charset: " ^ name)
                 name (Metrics.prom_name name))

let test_registry_export () =
  (* registry entries surface under the astree_ prefix with the kind
     suffix the exposition format wants *)
  let c = Metrics.counter "telemetry.test.unit_total_check" in
  Metrics.incr c;
  Metrics.incr c;
  let h = Metrics.histogram "telemetry.test.unit_hist" in
  Metrics.observe h 0;
  Metrics.observe h 5;
  let t = T.create ~now:0. () in
  let body = T.render_prometheus t ~now:1. (Metrics.snapshot ()) in
  Alcotest.(check bool) "counter as _total" true
    (has_sub body "astree_telemetry_test_unit_total_check_total 2");
  Alcotest.(check bool) "histogram le bounds are 2^k-1 points" true
    (has_sub body "astree_telemetry_test_unit_hist_bucket{le=\"0\"} 1");
  Alcotest.(check bool) "histogram +Inf closes the family" true
    (has_sub body "astree_telemetry_test_unit_hist_bucket{le=\"+Inf\"} 2")

(* ---- quantiles --------------------------------------------------- *)

let test_quantiles () =
  let t = T.create ~now:0. () in
  Alcotest.(check (option (float 1e-9))) "empty verb" None
    (T.quantile t ~verb:"analyze" 0.5);
  for i = 1 to 100 do
    T.observe t ~now:(float_of_int i)
      {
        T.rc_rid = Printf.sprintf "r%d" i;
        rc_verb = "analyze";
        rc_digest = "";
        rc_outcome = `Ok;
        rc_queue_s = 0.;
        rc_service_s = float_of_int i /. 100.;
        rc_cache_hits = 0;
      }
  done;
  let q p =
    match T.quantile t ~verb:"analyze" p with
    | Some v -> v
    | None -> Alcotest.fail "quantile vanished"
  in
  Alcotest.(check bool) "p50 near middle" true (abs_float (q 0.5 -. 0.5) < 0.02);
  Alcotest.(check bool) "p90 near top decile" true
    (abs_float (q 0.9 -. 0.9) < 0.02);
  Alcotest.(check bool) "p99 below max" true (q 0.99 <= 1.0);
  Alcotest.(check bool) "monotone" true (q 0.5 <= q 0.9 && q 0.9 <= q 0.99);
  let json = T.quantiles_json t in
  Alcotest.(check bool) "quantiles json names the verb" true
    (has_sub json "\"analyze\"" && has_sub json "\"count\": 100")

(* ---- access log & rotation --------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_access_log () =
  let path = Filename.temp_file "astree-telemetry" ".log" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".1") then Sys.remove (path ^ ".1"))
    (fun () ->
      let t = T.create ~access_log:path ~now:0. () in
      T.event t ~now:0.5 "start" [ ("pid", Srv.Json.Num 42.) ];
      T.observe t ~now:1.
        {
          T.rc_rid = "rff-01";
          rc_verb = "analyze";
          rc_digest = "abc";
          rc_outcome = `Ok;
          rc_queue_s = 0.001;
          rc_service_s = 0.25;
          rc_cache_hits = 7;
        };
      T.close t;
      let lines =
        read_file path |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "two lines" 2 (List.length lines);
      List.iter
        (fun l ->
          match Srv.Json.parse l with
          | Error e -> Alcotest.failf "unparsable log line %s: %s" l e
          | Ok j ->
              Alcotest.(check bool) "line has an event kind" true
                (Srv.Json.to_str (Srv.Json.member "event" j) <> None))
        lines;
      let req = List.nth lines 1 in
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("request line has " ^ sub) true
            (has_sub req sub))
        [
          "\"event\": \"request\"";
          "\"rid\": \"rff-01\"";
          "\"outcome\": \"ok\"";
          "\"cache_hits\": 7";
        ])

let test_rotation () =
  let path = Filename.temp_file "astree-telemetry" ".log" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".1") then Sys.remove (path ^ ".1"))
    (fun () ->
      (* max_log_bytes floors at 4096: write until rotation must occur *)
      let t = T.create ~access_log:path ~max_log_bytes:1 ~now:0. () in
      for i = 1 to 200 do
        T.observe t ~now:(float_of_int i)
          {
            T.rc_rid = Printf.sprintf "r%06d-aaaaaa" i;
            rc_verb = "analyze";
            rc_digest = String.make 40 'e';
            rc_outcome = `Ok;
            rc_queue_s = 0.;
            rc_service_s = 0.1;
            rc_cache_hits = i;
          }
      done;
      T.close t;
      Alcotest.(check bool) "rotated generation exists" true
        (Sys.file_exists (path ^ ".1"));
      (* atomic rename rotation: every surviving line — in both
         generations — is a complete, parsable record; nothing torn *)
      let check_lines file =
        read_file file |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.iter (fun l ->
               match Srv.Json.parse l with
               | Error e ->
                   Alcotest.failf "torn line after rotation in %s: %s (%s)"
                     file l e
               | Ok _ -> ())
      in
      check_lines path;
      check_lines (path ^ ".1");
      (* the live file respects the cap (one record of headroom) *)
      Alcotest.(check bool) "live file re-capped" true
        ((Unix.stat path).Unix.st_size <= 4096 + 512))

let test_unwritable_log_degrades () =
  let t =
    T.create ~access_log:"/nonexistent-dir-zz/x.log" ~now:0. ()
  in
  (* must not raise; in-memory accounting still works *)
  T.observe t ~now:1.
    {
      T.rc_rid = "r1";
      rc_verb = "analyze";
      rc_digest = "";
      rc_outcome = `Ok;
      rc_queue_s = 0.;
      rc_service_s = 0.5;
      rc_cache_hits = 0;
    };
  Alcotest.(check bool) "quantiles still accumulate" true
    (T.quantile t ~verb:"analyze" 0.5 = Some 0.5);
  T.close t

let suite =
  [
    Alcotest.test_case "request ids are unique and well-shaped" `Quick
      test_gen_id;
    Alcotest.test_case "prometheus name sanitization" `Quick test_prom_name;
    Alcotest.test_case "prometheus label escaping" `Quick test_prom_label;
    Alcotest.test_case "exposition renders byte-stably" `Quick
      test_render_stable;
    Alcotest.test_case "exposition carries the request mix" `Quick
      test_render_content;
    Alcotest.test_case "registry entries export with kind suffixes" `Quick
      test_registry_export;
    Alcotest.test_case "rolling quantiles" `Quick test_quantiles;
    Alcotest.test_case "access log lines are structured" `Quick
      test_access_log;
    Alcotest.test_case "rotation is atomic and size-capped" `Quick
      test_rotation;
    Alcotest.test_case "unwritable log degrades to memory" `Quick
      test_unwritable_log_degrades;
  ]
