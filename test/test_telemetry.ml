(* Telemetry tests: request-id generation and the access log's lines.
   All in-process — the daemon-side wiring (rid echo, one log line per
   wire request) is exercised in test_server.ml. *)

module Srv = Astree_server
module T = Srv.Telemetry

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

(* ---- access log -------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_access_log () =
  let path = Filename.temp_file "astree-telemetry" ".log" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let t = T.create (Some path) in
      T.event t ~now:0.5 "start" [ ("pid", Srv.Json.Num 42.) ];
      T.observe t ~now:1. ~digest:"abc" ~queue_s:0.001 ~service_s:0.25
        ~cache_hits:7 ~verb:"analyze" ~outcome:`Ok "rff-01";
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
      (* the request line's keys, order and number format are what
         perfbench's traced pass and log readers parse *)
      Alcotest.(check string) "request line"
        "{\"t\": 1, \"event\": \"request\", \"rid\": \"rff-01\", \
         \"verb\": \"analyze\", \"digest\": \"abc\", \"outcome\": \"ok\", \
         \"queue_s\": 0.001, \"service_s\": 0.25, \"cache_hits\": 7}"
        (List.nth lines 1))

let test_unwritable_log_degrades () =
  let t = T.create (Some "/nonexistent-dir-zz/x.log") in
  (* must not raise: the line is dropped and serving goes on *)
  T.observe t ~now:1. ~service_s:0.5 ~verb:"analyze" ~outcome:`Ok "r1";
  T.event t ~now:2. "exit" [];
  Alcotest.(check bool) "nothing written" false
    (Sys.file_exists "/nonexistent-dir-zz/x.log");
  T.close t

let suite =
  [
    Alcotest.test_case "request ids are unique and well-shaped" `Quick
      test_gen_id;
    Alcotest.test_case "access log lines are structured" `Quick
      test_access_log;
    Alcotest.test_case "unwritable log degrades to memory" `Quick
      test_unwritable_log_degrades;
  ]
