(* Analysis-server tests: protocol round-trips, client-vs-in-process
   byte parity, concurrent requests under different configurations,
   admission (the FIFO queue and identical-request dedup), fault-injected
   worker crashes, and graceful drain on shutdown.

   Each test forks a real daemon on a private socket and talks to it
   over the wire — the same code path [astree --connect] uses. *)

module C = Astree_core
module F = Astree_frontend
module G = Astree_gen
module I = Astree_incremental
module P = Astree_parallel
module R = Astree_robust
module Srv = Astree_server

(* ---- programs ---------------------------------------------------- *)

(* call-heavy: function summaries make a warm re-analysis cheap *)
let prog_calls =
  "static int lag(int x, int u) {\n\
  \  if (x < u) x = x + 1;\n\
  \  if (x > u) x = x - 1;\n\
  \  return x;\n\
   }\n\
   int main(void) {\n\
  \  int a = 0;\n\
  \  int b = 0;\n\
  \  int c = 0;\n\
  \  while (1) {\n\
  \    a = lag(a, 50);\n\
  \    b = lag(b, 80);\n\
  \    c = lag(c, 20);\n\
  \    __astree_wait_for_clock();\n\
  \  }\n\
  \  return 0;\n\
   }\n"

(* raises an overflow alarm: exercises alarm + provenance rendering *)
let prog_alarm =
  "int main(void) {\n\
  \  int x = 2147483600;\n\
  \  while (1) {\n\
  \    x = x + 100;\n\
  \    __astree_wait_for_clock();\n\
  \  }\n\
  \  return 0;\n\
   }\n"

let prog_simple =
  "int main(void) {\n\
  \  int x = 0;\n\
  \  while (1) {\n\
  \    if (x < 100) x = x + 1;\n\
  \    __astree_wait_for_clock();\n\
  \  }\n\
  \  return 0;\n\
   }\n"

(* ---- helpers ----------------------------------------------------- *)

let fresh_socket () =
  let path = Filename.temp_file "astreed-test" ".sock" in
  Sys.remove path;
  path

let wait_for_daemon sock =
  let rec go n =
    if n = 0 then Alcotest.fail "daemon did not come up"
    else
      match Srv.Client.try_connect sock with
      | Some fd -> Srv.Client.close fd
      | None ->
          Unix.sleepf 0.05;
          go (n - 1)
  in
  go 100

(* A zero-probability spec: installing it overrides any ASTREE_FAULTS
   from the environment (the chaos-matrix CI legs), so daemon tests that
   assert clean behavior stay hermetic — only tests that opt into faults
   see them. *)
let no_faults = [ (R.Faultsim.Worker_crash, 0.0) ]

(* Fork a daemon on a private socket; [faults] are armed in the child
   before it starts (inherited by its pool workers).  [store] is its
   summary store directory ([--cache]) and [tmpdir] the temporary
   directory its private store goes under otherwise.  The body gets the
   socket path and the daemon pid (to signal it); the daemon is
   SIGTERMed and reaped afterwards. *)
let with_daemon_ex ?(workers = 2) ?(grace = 10.)
    ?faults ?(hang = 3600.) ?(seed = 42) ?store ?tmpdir ?access_log
    ?(sock = fresh_socket ()) (k : string -> int -> unit) : unit =
  let faults = Option.value ~default:no_faults faults in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (* daemon process: never return into the test runner, nor keep
         its garbage, so the daemon's heap measures are its own *)
      Gc.compact ();
      R.Faultsim.hang_seconds := hang;
      if faults <> [] then R.Faultsim.install ~seed faults;
      Option.iter Filename.set_temp_dir_name tmpdir;
      let code =
        try
          Srv.Daemon.run
            {
              Srv.Daemon.default with
              Srv.Daemon.d_socket = sock;
              d_workers = workers;
              d_grace = grace;
              d_cache_dir = store;
              d_access_log = access_log;
            }
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          if Sys.file_exists sock then Sys.remove sock)
        (fun () ->
          wait_for_daemon sock;
          k sock pid)

let with_daemon ?workers ?grace ?faults ?hang (k : string -> unit) : unit =
  with_daemon_ex ?workers ?grace ?faults ?hang (fun sock _pid ->
      k sock)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "protocol failure: %s" e

let send_analyze ?(id = 1) ?(options = Srv.Service.default_options)
    ?(sources = [ ("t.c", prog_simple) ]) fd =
  ok_exn
    (Srv.Client.send fd
       (Srv.Client.analyze_request ~id ~sources ~main:"main" ~options ()))

(* what a one-shot [astree --format json] prints for these sources *)
let in_process_report ?(options = Srv.Service.default_options) sources :
    string * int =
  let cfg = Srv.Service.config_of options ~sources in
  let p, _ = C.Analysis.compile ~main:"main" sources in
  let r = P.Scheduler.analyze ~cfg p in
  (Srv.Report.render r, Srv.Report.exit_code r)

(* blank the volatile "time" statistic; everything else must be
   byte-identical between client mode and in-process *)
let scrub_time (s : string) : string =
  let marker = "\"time\": " in
  let mlen = String.length marker in
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + mlen <= n && String.sub s !i mlen = marker then begin
      Buffer.add_string b marker;
      Buffer.add_char b 'T';
      i := !i + mlen;
      while
        !i < n
        &&
        match s.[!i] with
        | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
        | _ -> false
      do
        incr i
      done
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let has_sub (s : string) (sub : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let analyze_json ?(id = 1) ?(options = Srv.Service.default_options) sources =
  Srv.Client.analyze_request_json ~id ~sources ~main:"main" ~options ()

(* the "server" member of a status reply *)
let server_status sock : Srv.Json.t =
  let rep =
    ok_exn
      (Srv.Client.request sock
         (Srv.Json.Obj [ ("verb", Srv.Json.Str "status") ]))
  in
  match Srv.Json.parse rep.Srv.Client.r_line with
  | Ok j -> Srv.Json.member "server" j
  | Error e -> Alcotest.failf "status reply unparsable: %s" e

let server_int field (j : Srv.Json.t) : int =
  Option.value ~default:(-1) (Srv.Json.to_int (Srv.Json.member field j))

(* the "server" member of an analyze reply *)
let reply_server (r : Srv.Client.reply) : Srv.Json.t =
  match Srv.Json.parse r.Srv.Client.r_line with
  | Ok j -> Srv.Json.member "server" j
  | Error _ -> Srv.Json.Null

(* the "preloaded" count of an ok analyze reply: how many summaries the
   request read from the store — the daemon's warmth signal *)
let reply_preloaded (r : Srv.Client.reply) : int =
  Option.value ~default:0
    (Srv.Json.to_int (Srv.Json.member "preloaded" (reply_server r)))

(* a counter the request's worker bumped, e.g. "cache.hits" *)
let reply_counter name (r : Srv.Client.reply) : int =
  Option.value ~default:0
    (Srv.Json.to_int
       (Srv.Json.member name
          (Srv.Json.member "counters" (Srv.Json.member "metrics" (reply_server r)))))

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* a fresh directory, removed with its files afterwards *)
let with_dir k =
  let dir = Filename.temp_dir "astreed-test-dir" "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> k dir)

let store_files dir =
  match Sys.readdir dir with
  | names ->
      Array.to_list names
      |> List.filter (fun f -> Filename.check_suffix f ".sums")
      |> List.map (Filename.concat dir)
  | exception Sys_error _ -> []

(* A two-stage filter cascade whose stage functions sit above
   [Memo.memo_min_stmts], so the analysis actually produces
   function summaries — the tiny inline programs above analyze without
   any, which makes them useless for warm-state tests.  Same shape as
   the E15 bench workload. *)
let prog_cascade =
  let stages = 2 and width = 16 in
  let buf = Buffer.create 8192 in
  for s = 0 to stages - 1 do
    Buffer.add_string buf (Printf.sprintf "volatile float u%d;\n" s);
    for v = 0 to width - 1 do
      Buffer.add_string buf (Printf.sprintf "float x%d_%d;\n" s v)
    done;
    Buffer.add_string buf (Printf.sprintf "short o%d;\nshort p%d;\n" s s)
  done;
  for s = 0 to stages - 1 do
    Buffer.add_string buf (Printf.sprintf "void stage%d(void) {\n" s);
    Buffer.add_string buf (Printf.sprintf "  x%d_0 = u%d;\n" s s);
    for v = 1 to width - 1 do
      Buffer.add_string buf
        (Printf.sprintf "  x%d_%d = 0.5f * x%d_%d + 0.5f * x%d_%d;\n" s v s v
           s (v - 1));
      Buffer.add_string buf
        (Printf.sprintf
           "  if (x%d_%d - x%d_%d > 0.25f) { x%d_%d = x%d_%d + 0.25f; }\n" s
           v s (v - 1) s v s (v - 1))
    done;
    Buffer.add_string buf
      (Printf.sprintf "  o%d = (short)(x%d_%d * 65536.0f);\n" s s (width - 1));
    Buffer.add_string buf
      (Printf.sprintf "  p%d = (short)(x%d_%d * 128.0f);\n" s s (width - 1));
    Buffer.add_string buf "}\n"
  done;
  Buffer.add_string buf "int main(void) {\n";
  for s = 0 to stages - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  __astree_input_range(u%d, -1.0, 1.0);\n" s);
    for v = 0 to width - 1 do
      Buffer.add_string buf (Printf.sprintf "  x%d_%d = 0.0f;\n" s v)
    done
  done;
  Buffer.add_string buf "  while (1) {\n";
  for s = 0 to stages - 1 do
    Buffer.add_string buf (Printf.sprintf "    stage%d();\n" s)
  done;
  Buffer.add_string buf
    "    __astree_wait_for_clock();\n  }\n  return 0;\n}\n";
  Buffer.contents buf

(* ---- json codec -------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1, 2.5, -3, \"x\"]";
      "{\"a\": [], \"b\": {\"c\": false}}";
      "\"quote \\\" backslash \\\\ newline \\n tab \\t\"";
      "{\"id\": 7, \"verb\": \"analyze\"}";
    ]
  in
  List.iter
    (fun s ->
      match Srv.Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok v -> (
          (* print-parse round-trip is the identity *)
          match Srv.Json.parse (Srv.Json.to_string v) with
          | Error e -> Alcotest.failf "reparse %s: %s" s e
          | Ok v' ->
              Alcotest.(check bool) ("roundtrip " ^ s) true (v = v')))
    cases;
  (match Srv.Json.parse "\"\\u00e9\\ud83d\\ude00\"" with
  | Ok (Srv.Json.Str s) ->
      Alcotest.(check string) "utf-8 decoding" "\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode escapes");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        ("rejects " ^ bad) true
        (Result.is_error (Srv.Json.parse bad)))
    [ "{"; "[1,"; "\"open"; "nul"; "1 2"; "{\"a\" 1}" ]

let test_options_roundtrip () =
  let o =
    {
      Srv.Service.default_options with
      Srv.Service.o_no_oct = true;
      o_unroll = 3;
      o_partition = [ "f"; "g" ];
      o_useful_packs = [ 1; 4 ];
      o_timeout = 2.5;
      o_cache = `Dir "/tmp/c";
    }
  in
  let o' = Srv.Service.options_of_json (Srv.Service.options_to_json o) in
  Alcotest.(check bool) "options wire round-trip" true (o = o');
  let d =
    Srv.Service.options_of_json (Srv.Service.options_to_json
                                   Srv.Service.default_options)
  in
  Alcotest.(check bool) "defaults round-trip" true
    (d = Srv.Service.default_options)

(* ---- protocol round-trips ---------------------------------------- *)

let test_verbs () =
  with_daemon (fun sock ->
      (* status *)
      let rep =
        ok_exn
          (Srv.Client.request sock
             (Srv.Json.Obj
                [ ("verb", Srv.Json.Str "status"); ("id", Srv.Json.Num 5.) ]))
      in
      Alcotest.(check string) "status ok" "ok" rep.Srv.Client.r_status;
      (match Srv.Json.parse rep.Srv.Client.r_line with
      | Ok j ->
          let server = Srv.Json.member "server" j in
          Alcotest.(check (option int))
            "status id echoed" (Some 5)
            (Srv.Json.to_int (Srv.Json.member "id" j));
          Alcotest.(check bool)
            "status has workers" true
            (Srv.Json.to_int (Srv.Json.member "workers" server) = Some 2)
      | Error e -> Alcotest.failf "status reply unparsable: %s" e);
      (* metrics *)
      let rep =
        ok_exn
          (Srv.Client.request sock
             (Srv.Json.Obj [ ("verb", Srv.Json.Str "metrics") ]))
      in
      Alcotest.(check string) "metrics ok" "ok" rep.Srv.Client.r_status;
      Alcotest.(check bool)
        "metrics carries the registry" true
        (match Srv.Json.parse rep.Srv.Client.r_line with
        | Ok j ->
            Srv.Json.member "counters" (Srv.Json.member "metrics" j)
            <> Srv.Json.Null
        | Error _ -> false);
      (* analyze *)
      let fd = Option.get (Srv.Client.try_connect sock) in
      Fun.protect
        ~finally:(fun () -> Srv.Client.close fd)
        (fun () ->
          send_analyze ~id:9 fd;
          let line = ok_exn (Srv.Client.read_reply (Srv.Client.reader fd)) in
          let rep = Srv.Client.decode line in
          Alcotest.(check string) "analyze ok" "ok" rep.Srv.Client.r_status;
          Alcotest.(check bool)
            "analyze has a report" true
            (rep.Srv.Client.r_report <> None);
          Alcotest.(check int) "clean program exits 0" 0
            rep.Srv.Client.r_exit);
      (* errors: unknown verb, malformed json, missing sources *)
      let rep =
        ok_exn
          (Srv.Client.request sock
             (Srv.Json.Obj [ ("verb", Srv.Json.Str "explode") ]))
      in
      Alcotest.(check string) "unknown verb" "error" rep.Srv.Client.r_status;
      let fd = Option.get (Srv.Client.try_connect sock) in
      Fun.protect
        ~finally:(fun () -> Srv.Client.close fd)
        (fun () ->
          let rep =
            Srv.Client.decode (ok_exn (Srv.Client.roundtrip fd "not json"))
          in
          Alcotest.(check string) "malformed request" "error"
            rep.Srv.Client.r_status);
      let rep =
        ok_exn
          (Srv.Client.request sock
             (Srv.Json.Obj [ ("verb", Srv.Json.Str "analyze") ]))
      in
      Alcotest.(check string) "analyze without sources" "error"
        rep.Srv.Client.r_status;
      (* a parse error is a per-request error, not a crash *)
      let rep =
        ok_exn
          (Srv.Client.request sock
             (Srv.Json.parse
                (Srv.Client.analyze_request
                   ~sources:[ ("bad.c", "int main( {") ]
                   ~main:"main" ~options:Srv.Service.default_options ())
             |> Result.get_ok))
      in
      Alcotest.(check string) "parse error refused" "error"
        rep.Srv.Client.r_status;
      (* shutdown verb: ok reply, then the daemon exits and unlinks *)
      let rep =
        ok_exn
          (Srv.Client.request sock
             (Srv.Json.Obj [ ("verb", Srv.Json.Str "shutdown") ]))
      in
      Alcotest.(check string) "shutdown ok" "ok" rep.Srv.Client.r_status;
      let rec wait_gone n =
        if Sys.file_exists sock && n > 0 then begin
          Unix.sleepf 0.05;
          wait_gone (n - 1)
        end
      in
      wait_gone 100;
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock))

(* ---- byte parity ------------------------------------------------- *)

let test_client_parity () =
  let programs =
    [ ("simple.c", prog_simple); ("calls.c", prog_calls);
      ("alarm.c", prog_alarm) ]
  in
  with_daemon (fun sock ->
      List.iter
        (fun (name, src) ->
          let sources = [ (name, src) ] in
          let expected, expected_exit = in_process_report sources in
          (* twice: the second request runs against the warm resident
             caches and must still render the same bytes *)
          List.iter
            (fun round ->
              let fd = Option.get (Srv.Client.try_connect sock) in
              Fun.protect
                ~finally:(fun () -> Srv.Client.close fd)
                (fun () ->
                  send_analyze ~sources fd;
                  let line =
                    ok_exn (Srv.Client.read_reply (Srv.Client.reader fd))
                  in
                  let rep = Srv.Client.decode line in
                  Alcotest.(check string)
                    (Printf.sprintf "%s round %d ok" name round)
                    "ok" rep.Srv.Client.r_status;
                  Alcotest.(check int)
                    (Printf.sprintf "%s round %d exit" name round)
                    expected_exit rep.Srv.Client.r_exit;
                  match rep.Srv.Client.r_report with
                  | None -> Alcotest.fail "reply without report"
                  | Some report ->
                      Alcotest.(check string)
                        (Printf.sprintf "%s round %d byte parity" name round)
                        (scrub_time expected) (scrub_time report)))
            [ 1; 2 ])
        programs)

(* ---- concurrency ------------------------------------------------- *)

let test_concurrent_configs () =
  (* different configurations in flight at once — including the
     degradation governor armed on one of them — must each match their
     sequential one-shot *)
  let variants =
    [
      Srv.Service.default_options;
      { Srv.Service.default_options with Srv.Service.o_no_oct = true };
      (* a generous budget arms the watchdog ladder without tripping *)
      { Srv.Service.default_options with Srv.Service.o_timeout = 300. };
    ]
  in
  let sources = [ ("calls.c", prog_calls) ] in
  let expected =
    List.map (fun options -> in_process_report ~options sources) variants
  in
  with_daemon ~workers:3 (fun sock ->
      let conns =
        List.mapi
          (fun i options ->
            let fd = Option.get (Srv.Client.try_connect sock) in
            send_analyze ~id:i ~options ~sources fd;
            (fd, Srv.Client.reader fd))
          variants
      in
      List.iteri
        (fun i ((fd, reader), (want_report, want_exit)) ->
          Fun.protect
            ~finally:(fun () -> Srv.Client.close fd)
            (fun () ->
              let rep = Srv.Client.decode (ok_exn (Srv.Client.read_reply reader)) in
              Alcotest.(check string)
                (Printf.sprintf "variant %d ok" i)
                "ok" rep.Srv.Client.r_status;
              Alcotest.(check int)
                (Printf.sprintf "variant %d exit" i)
                want_exit rep.Srv.Client.r_exit;
              Alcotest.(check string)
                (Printf.sprintf "variant %d equals its one-shot" i)
                (scrub_time want_report)
                (scrub_time (Option.get rep.Srv.Client.r_report))))
        (List.combine conns expected))

(* ---- admission control ------------------------------------------- *)

let test_queue_fifo () =
  (* one worker, held busy by an injected hang on every job; three
     distinct programs pipelined on one connection: the two the worker
     cannot take wait in the queue, and all three are served, in
     arrival order *)
  with_daemon ~workers:1 ~hang:0.4
    ~faults:[ (R.Faultsim.Worker_hang, 1.0) ]
    (fun sock ->
      let fd = Option.get (Srv.Client.try_connect sock) in
      Fun.protect
        ~finally:(fun () -> Srv.Client.close fd)
        (fun () ->
          (* distinct programs: identical ones would dedup onto one job *)
          List.iteri
            (fun i src -> send_analyze ~id:(i + 1) ~sources:[ ("q.c", src) ] fd)
            [ prog_simple; prog_alarm; prog_calls ];
          Unix.sleepf 0.15;
          let server = server_status sock in
          Alcotest.(check int) "one in flight" 1 (server_int "inflight" server);
          Alcotest.(check int) "two queued" 2 (server_int "queued" server);
          let reader = Srv.Client.reader fd in
          List.iter
            (fun id ->
              let line = ok_exn (Srv.Client.read_reply reader) in
              let rep = Srv.Client.decode line in
              Alcotest.(check string)
                (Printf.sprintf "request %d served" id)
                "ok" rep.Srv.Client.r_status;
              Alcotest.(check (option int))
                (Printf.sprintf "reply %d in arrival order" id)
                (Some id)
                (Result.to_option (Srv.Json.parse line)
                |> Fun.flip Option.bind (fun j ->
                       Srv.Json.to_int (Srv.Json.member "id" j))))
            [ 1; 2; 3 ]);
      let server = server_status sock in
      Alcotest.(check int) "all three served" 3 (server_int "served" server);
      Alcotest.(check int) "nothing failed" 0 (server_int "errors" server);
      Alcotest.(check int) "queue empty" 0 (server_int "queued" server))

(* ---- fault injection --------------------------------------------- *)

let test_worker_crash () =
  (* every worker self-kills on job receipt: the request fails with a
     per-request error and the daemon survives to answer status *)
  with_daemon ~workers:1 ~faults:[ (R.Faultsim.Worker_crash, 1.0) ]
    (fun sock ->
      let fd = Option.get (Srv.Client.try_connect sock) in
      Fun.protect
        ~finally:(fun () -> Srv.Client.close fd)
        (fun () ->
          send_analyze fd;
          let rep =
            Srv.Client.decode
              (ok_exn (Srv.Client.read_reply (Srv.Client.reader fd)))
          in
          Alcotest.(check string) "crash is a request error" "error"
            rep.Srv.Client.r_status;
          Alcotest.(check bool)
            "error names the crash" true
            (match rep.Srv.Client.r_error with
            | Some m ->
                (* substring check *)
                let has_sub s sub =
                  let n = String.length s and m' = String.length sub in
                  let rec go i =
                    i + m' <= n
                    && (String.sub s i m' = sub || go (i + 1))
                  in
                  go 0
                in
                has_sub m "crash"
            | None -> false));
      let rep =
        ok_exn
          (Srv.Client.request sock
             (Srv.Json.Obj [ ("verb", Srv.Json.Str "status") ]))
      in
      Alcotest.(check string) "daemon alive after crash" "ok"
        rep.Srv.Client.r_status)

(* ---- graceful shutdown ------------------------------------------- *)

let test_shutdown_drains () =
  (* worker 1 is busy (hang), request 2 queued; shutdown must answer
     ok, tell the queued client shutting_down, and still deliver the
     in-flight reply before exiting *)
  with_daemon ~workers:1 ~hang:0.8
    ~faults:[ (R.Faultsim.Worker_hang, 1.0) ]
    (fun sock ->
      let fd = Option.get (Srv.Client.try_connect sock) in
      Fun.protect
        ~finally:(fun () -> Srv.Client.close fd)
        (fun () ->
          send_analyze ~id:1 fd;
          Unix.sleepf 0.2;
          (* different program so the queued request keeps its own
             job instead of dedup-attaching to the in-flight one *)
          send_analyze ~id:2 ~sources:[ ("a.c", prog_alarm) ] fd;
          Unix.sleepf 0.1;
          ok_exn
            (Srv.Client.send fd
               (Srv.Json.to_string
                  (Srv.Json.Obj
                     [ ("verb", Srv.Json.Str "shutdown");
                       ("id", Srv.Json.Num 3.) ])));
          let reader = Srv.Client.reader fd in
          let shutdown_ack =
            Srv.Client.decode (ok_exn (Srv.Client.read_reply reader))
          in
          let queued =
            Srv.Client.decode (ok_exn (Srv.Client.read_reply reader))
          in
          let inflight =
            Srv.Client.decode (ok_exn (Srv.Client.read_reply reader))
          in
          Alcotest.(check string) "shutdown acknowledged" "ok"
            shutdown_ack.Srv.Client.r_status;
          Alcotest.(check string) "queued request told shutting_down"
            "shutting_down" queued.Srv.Client.r_status;
          Alcotest.(check string) "in-flight request drained" "ok"
            inflight.Srv.Client.r_status);
      let rec wait_gone n =
        if Sys.file_exists sock && n > 0 then begin
          Unix.sleepf 0.05;
          wait_gone (n - 1)
        end
      in
      wait_gone 100;
      Alcotest.(check bool) "socket unlinked after drain" false
        (Sys.file_exists sock))

(* ---- multi-task requests ----------------------------------------- *)

(* a two-task program: the daemon runs its interference fixpoint in
   the worker, on one core, and replies with the one-shot report *)
let prog_multi_task =
  "/* astree-task: t1 t2 */\n\
   int g;\n\
   void t1(void) { while (1) { g = g + 1; __astree_wait_for_clock(); } }\n\
   void t2(void) { while (1) { int x = g; __astree_wait_for_clock(); } }\n\
   int main(void) { while (1) { __astree_wait_for_clock(); } }\n"

(* what a one-shot [astree --format json] prints for a two-task
   program, built from the fixpoint directly *)
let multi_task_report sources : string * int =
  let cfg = Srv.Service.config_of Srv.Service.default_options ~sources in
  let p, _ = C.Analysis.compile ~main:"main" sources in
  let cr = Astree_conc.Fixpoint.analyze ~cfg ~tasks:[ "t1"; "t2" ] p in
  let r = cr.Astree_conc.Fixpoint.c_result in
  ( Srv.Report.render
      ~interference:
        {
          Srv.Report.i_tasks = 2;
          i_rounds = cr.Astree_conc.Fixpoint.c_rounds;
          i_stabilized = cr.Astree_conc.Fixpoint.c_stabilized;
          i_shared = List.length cr.Astree_conc.Fixpoint.c_shared;
        }
      r,
    Srv.Report.exit_code r )

let test_multi_task_served () =
  let marked = [ ("m.c", prog_multi_task) ] in
  (* the same program without its marker, the tasks named instead *)
  let unmarked =
    let marker = String.length "/* astree-task: t1 t2 */" in
    let n = String.length prog_multi_task in
    [ ("m.c", String.sub prog_multi_task marker (n - marker)) ]
  in
  let named =
    { Srv.Service.default_options with Srv.Service.o_tasks = [ "t1"; "t2" ] }
  in
  let report, code = multi_task_report marked in
  Alcotest.(check bool) "the one-shot report has an interference block" true
    (has_sub report "\"interference\": {\"tasks\": 2");
  Alcotest.(check string) "the unmarked copy's one-shot report"
    (scrub_time report) (scrub_time (fst (multi_task_report unmarked)));
  let cases =
    [
      ("markers", Srv.Service.default_options, marked);
      ("tasks", named, unmarked);
    ]
  in
  (* worker-side, without a daemon round-trip *)
  List.iter
    (fun (what, options, sources) ->
      match
        Srv.Service.serve
          {
            Srv.Service.w_sources = sources;
            w_main = "main";
            w_options = options;
            w_preload = [];
            w_strip_cache = true;
          }
      with
      | Srv.Service.Served sv ->
          Alcotest.(check string) (what ^ ": the one-shot report")
            (scrub_time report) (scrub_time sv.Srv.Service.sv_report);
          Alcotest.(check int) (what ^ ": the one-shot exit code") code
            sv.Srv.Service.sv_exit
      | Srv.Service.Refused m -> Alcotest.failf "%s: refused (%s)" what m)
    cases;
  (* over the wire, under the daemon's store and with the cache off *)
  with_daemon (fun sock ->
      List.iter
        (fun (what, options, sources) ->
          List.iter
            (fun (cache, options) ->
              let what = what ^ ", " ^ cache in
              let rep =
                ok_exn (Srv.Client.request sock (analyze_json ~options sources))
              in
              Alcotest.(check string) (what ^ ": ok") "ok"
                rep.Srv.Client.r_status;
              Alcotest.(check string) (what ^ ": the one-shot report")
                (scrub_time report)
                (scrub_time (Option.get rep.Srv.Client.r_report));
              Alcotest.(check int) (what ^ ": the one-shot exit code") code
                rep.Srv.Client.r_exit)
            [
              ("daemon store", options);
              ("cache off", { options with o_cache = `Off });
            ])
        cases);
  Alcotest.(check (list string)) "tasks wire round-trip" [ "t1"; "t2" ]
    (Srv.Service.options_of_json (Srv.Service.options_to_json named))
      .Srv.Service.o_tasks

(* An error the analysis raises (a call to a function without a body,
   a task list naming no function) is refused with its diagnosis, as a
   compile error is: the client falls back in-process with that
   diagnosis in its note. *)
let test_analysis_error_refused () =
  let sources =
    [ ("anal.c", "int g(int a);\nint main(void) { return g(1); }\n") ]
  in
  List.iter
    (fun (what, w_options, w_sources, msg) ->
      match
        Srv.Service.serve
          {
            Srv.Service.w_sources;
            w_main = "main";
            w_options;
            w_preload = [];
            w_strip_cache = true;
          }
      with
      | Srv.Service.Refused m ->
          Alcotest.(check string) (what ^ ": the refusal") msg m
      | Srv.Service.Served _ -> Alcotest.failf "%s served" what)
    [
      ( "anal.c",
        Srv.Service.default_options,
        sources,
        "call to unknown function g" );
      ( "an unknown task",
        { Srv.Service.default_options with o_tasks = [ "t1"; "bogus" ] },
        [ ("m.c", prog_multi_task) ],
        "unknown task \"bogus\"" );
    ];
  with_daemon (fun sock ->
      (match
         Srv.Client.verdict (Srv.Client.request sock (analyze_json sources))
       with
      | Srv.Client.Fallback why ->
          Alcotest.(check string) "the client's note"
            "daemon: call to unknown function g" why
      | _ -> Alcotest.fail "an analysis error is not a fallback");
      let rep =
        ok_exn (Srv.Client.request sock (analyze_json [ ("t.c", prog_simple) ]))
      in
      Alcotest.(check string) "the daemon still serves" "ok"
        rep.Srv.Client.r_status)

(* ---- client transport failures ---------------------------------- *)

(* [astree --connect] falls back in-process whenever [Client.request]
   returns [Error]: a stale socket file, a hang-up and a torn reply must
   each surface as one, at once *)

let status_req = Srv.Json.Obj [ ("verb", Srv.Json.Str "status") ]

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: a reply came back" what
  | Error _ -> ()

let test_stale_socket_errors () =
  let sock = fresh_socket () in
  (* a socket file nothing listens on, as a killed daemon leaves it *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX sock);
  Unix.close fd;
  Fun.protect
    ~finally:(fun () -> Sys.remove sock)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      expect_error "stale socket" (Srv.Client.request sock status_req);
      Alcotest.(check bool) "no wait on a stale socket" true
        (Unix.gettimeofday () -. t0 < 0.5));
  expect_error "no socket file" (Srv.Client.request sock status_req)

(* a one-connection server: reads the request line, writes [reply]
   (which need not end its line), hangs up *)
let with_fake_daemon (reply : string) (k : string -> unit) : unit =
  let sock = fresh_socket () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 1;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try
         let cfd, _ = Unix.accept lfd in
         ignore (Srv.Client.read_reply (Srv.Client.reader cfd));
         ignore (Unix.write_substring cfd reply 0 (String.length reply))
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close lfd;
      Fun.protect
        ~finally:(fun () ->
          ignore (Unix.waitpid [] pid);
          Sys.remove sock)
        (fun () -> k sock)

let test_torn_reply_errors () =
  let line = "{\"id\": null, \"rid\": \"r1\", \"status\": \"ok\"}" in
  with_fake_daemon (String.sub line 0 (String.length line / 2)) (fun sock ->
      expect_error "torn reply" (Srv.Client.request sock status_req));
  with_fake_daemon "" (fun sock ->
      expect_error "hang-up" (Srv.Client.request sock status_req));
  (* the same line whole is a reply *)
  with_fake_daemon (line ^ "\n") (fun sock ->
      Alcotest.(check string) "a whole line decodes" "ok"
        (ok_exn (Srv.Client.request sock status_req)).Srv.Client.r_status)

(* ---- cross-request dedup ----------------------------------------- *)

let test_dedup () =
  (* two identical requests from two clients while the single worker
     hangs: the second attaches to the first's job; both get full,
     byte-identical replies, and the daemon counts one dedup hit *)
  with_daemon ~workers:1 ~hang:0.5
    ~faults:[ (R.Faultsim.Worker_hang, 1.0) ]
    (fun sock ->
      let fd1 = Option.get (Srv.Client.try_connect sock) in
      let fd2 = Option.get (Srv.Client.try_connect sock) in
      Fun.protect
        ~finally:(fun () ->
          Srv.Client.close fd1;
          Srv.Client.close fd2)
        (fun () ->
          send_analyze ~id:1 fd1;
          Unix.sleepf 0.2;
          send_analyze ~id:2 fd2;
          let r1 =
            Srv.Client.decode
              (ok_exn (Srv.Client.read_reply (Srv.Client.reader fd1)))
          in
          let r2 =
            Srv.Client.decode
              (ok_exn (Srv.Client.read_reply (Srv.Client.reader fd2)))
          in
          Alcotest.(check string) "first served" "ok" r1.Srv.Client.r_status;
          Alcotest.(check string) "second served" "ok" r2.Srv.Client.r_status;
          Alcotest.(check string) "byte-identical reports"
            (scrub_time (Option.get r1.Srv.Client.r_report))
            (scrub_time (Option.get r2.Srv.Client.r_report)));
      let server = server_status sock in
      Alcotest.(check int) "one dedup hit" 1 (server_int "dedup_hits" server);
      Alcotest.(check int) "both counted as served" 2
        (server_int "served" server))

(* ---- closed clients --------------------------------------------- *)

let test_closed_client_dropped () =
  (* the single worker hangs on client A's request; client B queues a
     different program, then hangs up.  B's queued request must leave
     the queue at once and never reach a worker. *)
  with_daemon ~workers:1 ~hang:0.8
    ~faults:[ (R.Faultsim.Worker_hang, 1.0) ]
    (fun sock ->
      let fd_a = Option.get (Srv.Client.try_connect sock) in
      Fun.protect
        ~finally:(fun () -> Srv.Client.close fd_a)
        (fun () ->
          send_analyze ~id:1 fd_a;
          Unix.sleepf 0.2;
          let fd_b = Option.get (Srv.Client.try_connect sock) in
          send_analyze ~id:2 ~sources:[ ("a.c", prog_alarm) ] fd_b;
          Unix.sleepf 0.1;
          Alcotest.(check int) "B's request queued" 1
            (server_int "queued" (server_status sock));
          Srv.Client.close fd_b;
          Unix.sleepf 0.1;
          Alcotest.(check int) "closing B empties the queue" 0
            (server_int "queued" (server_status sock));
          let r =
            Srv.Client.decode
              (ok_exn (Srv.Client.read_reply (Srv.Client.reader fd_a)))
          in
          Alcotest.(check string) "A served" "ok" r.Srv.Client.r_status);
      (* A's completion frees the worker; nothing is left to dispatch *)
      let server = server_status sock in
      Alcotest.(check int) "no job started for B" 0
        (server_int "inflight" server);
      Alcotest.(check int) "served counts only A" 1
        (server_int "served" server))

(* ---- SIGHUP ------------------------------------------------------ *)

let test_sighup_ignored () =
  (* nothing is reloadable: a SIGHUP during a hung in-flight request
     neither kills nor drains the daemon *)
  with_daemon_ex ~workers:1 ~hang:0.8
    ~faults:[ (R.Faultsim.Worker_hang, 1.0) ]
    (fun sock pid ->
      let fd = Option.get (Srv.Client.try_connect sock) in
      Fun.protect
        ~finally:(fun () -> Srv.Client.close fd)
        (fun () ->
          send_analyze ~id:1 fd;
          Unix.sleepf 0.2;
          Unix.kill pid Sys.sighup;
          let r =
            Srv.Client.decode
              (ok_exn (Srv.Client.read_reply (Srv.Client.reader fd)))
          in
          Alcotest.(check string) "in-flight request served" "ok"
            r.Srv.Client.r_status);
      let server = server_status sock in
      Alcotest.(check int) "status answers from the same daemon" pid
        (server_int "pid" server);
      Alcotest.(check bool) "not draining" false
        (Option.value ~default:true
           (Srv.Json.to_bool (Srv.Json.member "draining" server))))

(* ---- removed request keys ---------------------------------------- *)

(* Requests written for older daemons may still carry a removed option.
   The wire options ignore it: the daemon answers ok and renders the
   same report as for the request without the key. *)
let check_key_ignored key value =
  let sources = [ ("calls.c", prog_calls) ] in
  let with_key =
    match analyze_json sources with
    | Srv.Json.Obj fields ->
        Srv.Json.Obj
          (List.map
             (function
               | "options", Srv.Json.Obj o ->
                   ("options", Srv.Json.Obj ((key, value) :: o))
               | kv -> kv)
             fields)
    | _ -> Alcotest.fail "analyze request is not an object"
  in
  with_daemon (fun sock ->
      let report req =
        let r = ok_exn (Srv.Client.request sock req) in
        Alcotest.(check string) "ok reply" "ok" r.Srv.Client.r_status;
        match r.Srv.Client.r_report with
        | Some s -> scrub_time s
        | None -> Alcotest.fail "reply without report"
      in
      let keyed = report with_key in
      Alcotest.(check string) "report identical without the key"
        (report (analyze_json sources)) keyed)

let test_backend_key_ignored () =
  check_key_ignored "backend" (Srv.Json.Str "domains")

(* the in-memory cache mode is gone: the daemon serves such a request
   from its store, as one that names no cache *)
let test_cache_mem_ignored () = check_key_ignored "cache" (Srv.Json.Str "mem")

(* ---- crash-recovered warm state ---------------------------------- *)

(* a first daemon life on [store] serves [sources] once, cold — its
   worker publishes the summaries before replying — then dies by
   SIGKILL: no shutdown path runs *)
let serve_then_kill ~store sources ~baseline =
  with_daemon_ex ~faults:no_faults ~store (fun sock pid ->
      let r = ok_exn (Srv.Client.request sock (analyze_json sources)) in
      Alcotest.(check string) "cold serve ok" "ok" r.Srv.Client.r_status;
      Alcotest.(check int) "cold run reads nothing" 0 (reply_preloaded r);
      Alcotest.(check string) "cold report correct" (scrub_time baseline)
        (scrub_time (Option.get r.Srv.Client.r_report));
      Alcotest.(check bool) "summaries published before the reply" true
        (store_files store <> []);
      Unix.kill pid Sys.sigkill)

(* a second life on [store]: the first request runs cold and still
   answers exactly *)
let check_restart_cold ~store sources ~baseline ~why =
  with_daemon_ex ~faults:no_faults ~store (fun sock _pid ->
      let server = server_status sock in
      Alcotest.(check int) ("nothing recovered from " ^ why) 0
        (server_int "recovered" server);
      let r = ok_exn (Srv.Client.request sock (analyze_json sources)) in
      Alcotest.(check string) "cold but serving" "ok" r.Srv.Client.r_status;
      Alcotest.(check int) "cold: nothing read" 0 (reply_preloaded r);
      Alcotest.(check string) "cold report byte-identical"
        (scrub_time baseline)
        (scrub_time (Option.get r.Srv.Client.r_report)))

let test_store_recovery () =
  (* the second life on the same store is warm from its first request,
     and its report is byte-identical *)
  let sources = [ ("cascade.c", prog_cascade) ] in
  let baseline, _ = in_process_report sources in
  with_dir (fun store ->
      serve_then_kill ~store sources ~baseline;
      with_daemon_ex ~faults:no_faults ~store (fun sock _pid ->
          let server = server_status sock in
          Alcotest.(check bool) "store keys recovered" true
            (server_int "recovered" server > 0);
          let r = ok_exn (Srv.Client.request sock (analyze_json sources)) in
          Alcotest.(check string) "recovered serve ok" "ok"
            r.Srv.Client.r_status;
          Alcotest.(check bool) "recovered daemon is warm" true
            (reply_preloaded r > 0 && reply_counter "cache.hits" r > 0);
          Alcotest.(check string) "recovered report byte-identical"
            (scrub_time baseline)
            (scrub_time (Option.get r.Srv.Client.r_report))))

let test_store_torn () =
  (* the published store file is torn after the fact — half of it, the
     way a write that stopped midway without the atomic rename would
     leave it: the restarted daemon must skip it and answer cold *)
  let sources = [ ("cascade.c", prog_cascade) ] in
  let baseline, _ = in_process_report sources in
  with_dir (fun store ->
      serve_then_kill ~store sources ~baseline;
      List.iter
        (fun f ->
          let s = In_channel.with_open_bin f In_channel.input_all in
          Out_channel.with_open_bin f (fun oc ->
              Out_channel.output_string oc
                (String.sub s 0 (String.length s / 2))))
        (store_files store);
      check_restart_cold ~store sources ~baseline ~why:"a torn file")

let test_restart_over_stale_socket () =
  (* kill -9 leaves the socket file behind: a client errors at once,
     and a daemon started on the same socket path and store binds over
     it and is warm from its first request *)
  let sources = [ ("cascade.c", prog_cascade) ] in
  let baseline, _ = in_process_report sources in
  with_dir (fun store ->
      with_daemon_ex ~store (fun sock pid ->
          ignore (ok_exn (Srv.Client.request sock (analyze_json sources)));
          Unix.kill pid Sys.sigkill;
          let rec gone n =
            match Srv.Client.try_connect sock with
            | None -> ()
            | Some fd ->
                Srv.Client.close fd;
                if n = 0 then Alcotest.fail "daemon survived SIGKILL";
                Unix.sleepf 0.02;
                gone (n - 1)
          in
          gone 250;
          Alcotest.(check bool) "the socket file stays behind" true
            (Sys.file_exists sock);
          let t0 = Unix.gettimeofday () in
          expect_error "stale socket"
            (Srv.Client.request sock (analyze_json sources));
          Alcotest.(check bool) "no wait on a stale socket" true
            (Unix.gettimeofday () -. t0 < 0.5);
          with_daemon_ex ~store ~sock (fun sock pid' ->
              let server = server_status sock in
              Alcotest.(check int) "the new daemon answers" pid'
                (server_int "pid" server);
              Alcotest.(check bool) "store keys recovered" true
                (server_int "recovered" server > 0);
              let r = ok_exn (Srv.Client.request sock (analyze_json sources)) in
              Alcotest.(check string) "restarted serve ok" "ok"
                r.Srv.Client.r_status;
              Alcotest.(check bool) "restarted daemon is warm" true
                (reply_preloaded r > 0);
              Alcotest.(check string) "restarted report byte-identical"
                (scrub_time baseline)
                (scrub_time (Option.get r.Srv.Client.r_report)))))

let test_store_foreign_version () =
  (* a store file written before the framed keys (magic v5) holds
     summaries no current request can use: the daemon must read it as
     foreign, start cold and answer correctly *)
  let sources = [ ("cascade.c", prog_cascade) ] in
  let baseline, _ = in_process_report sources in
  with_dir (fun store ->
      let payload =
        Marshal.to_string
          (Sys.ocaml_version, "key", ([||] : (int * int) array))
          []
      in
      Out_channel.with_open_bin (Filename.concat store "old.sums") (fun oc ->
          Out_channel.output_string oc
            ("astree-summary-store v5\n" ^ Digest.string payload ^ payload));
      check_restart_cold ~store sources ~baseline ~why:"a v5 file")

(* ---- one shared summary store ------------------------------------ *)

let fused_member ?(seed = 4) ?(lines = 2000) () =
  (G.Generator.generate
     { G.Generator.default with G.Generator.seed; target_lines = lines; fuse = 16 })
    .G.Generator.source

(* perfbench's edit: a dead block with a new local at the top of
   [stage_5]'s body *)
let dead_block src =
  let hdr = "void stage_5(void) {" in
  let rec find i =
    if i + String.length hdr > String.length src then
      Alcotest.fail "no stage_5 in the member"
    else if String.sub src i (String.length hdr) = hdr then
      i + String.length hdr
    else find (i + 1)
  in
  let at = find 0 in
  String.sub src 0 at ^ "\n  { int pb_edit; pb_edit = 6; }"
  ^ String.sub src at (String.length src - at)

(* an analyze reply must be ok and render the cache-off one-shot's
   report; [what] names the request *)
let check_parity ~what sources (r : Srv.Client.reply) =
  let expected, _ = in_process_report sources in
  Alcotest.(check string) (what ^ " ok") "ok" r.Srv.Client.r_status;
  Alcotest.(check string)
    (what ^ " = cache-off one-shot")
    (scrub_time expected)
    (scrub_time (Option.get r.Srv.Client.r_report))

let check_mostly_hits ~what (r : Srv.Client.reply) =
  let hits = reply_counter "cache.hits" r
  and misses = reply_counter "cache.misses" r in
  Alcotest.(check bool)
    (Printf.sprintf "%s: hits exceed misses (%d hits, %d misses)" what hits
       misses)
    true (hits > misses)

let test_edited_request_hits () =
  (* the edited copy, under another file name, hits the summaries its
     base's request published *)
  let src = fused_member () in
  let base = [ ("m.c", src) ] and edited = [ ("e0_005.c", dead_block src) ] in
  with_daemon_ex ~workers:1 (fun sock _pid ->
      let request sources =
        ok_exn (Srv.Client.request sock (analyze_json sources))
      in
      check_parity ~what:"base" base (request base);
      let r = request edited in
      check_parity ~what:"edited copy" edited r;
      check_mostly_hits ~what:"edited copy" r)

let test_workers_share_the_store () =
  (* worker A serves the base; while A is busy with a slow request,
     the edited copy goes to worker B — the pool hands a job to its
     lowest idle slot, so B has served nothing before and holds no
     summary of its own: its hits are A's published keys *)
  let src = fused_member () in
  let base = [ ("m.c", src) ] and edited = [ ("e0_005.c", dead_block src) ] in
  let slow = [ ("slow.c", fused_member ~seed:5 ()) ] in
  with_daemon_ex ~workers:2 (fun sock _pid ->
      check_parity ~what:"base on worker A" base
        (ok_exn (Srv.Client.request sock (analyze_json base)));
      let fd = Option.get (Srv.Client.try_connect sock) in
      Fun.protect
        ~finally:(fun () -> Srv.Client.close fd)
        (fun () ->
          send_analyze
            ~options:{ Srv.Service.default_options with Srv.Service.o_cache = `Off }
            ~sources:slow fd;
          let rec busy n =
            if server_int "inflight" (server_status sock) = 1 then ()
            else if n = 0 then Alcotest.fail "slow request never started"
            else (
              Unix.sleepf 0.01;
              busy (n - 1))
          in
          busy 200;
          let r = ok_exn (Srv.Client.request sock (analyze_json edited)) in
          check_parity ~what:"edited copy on worker B" edited r;
          check_mostly_hits ~what:"edited copy on worker B" r;
          let line = ok_exn (Srv.Client.read_reply (Srv.Client.reader fd)) in
          Alcotest.(check string) "slow request ok" "ok"
            (Srv.Client.decode line).Srv.Client.r_status))

let test_daemon_heap_flat () =
  (* forty distinct programs: the daemon holds none of their summaries,
     so its own major heap does not grow with what the workers publish *)
  let programs =
    List.init 40 (fun i ->
        [ (Printf.sprintf "p%02d.c" i, fused_member ~seed:(100 + i) ~lines:500 ()) ])
  in
  with_dir (fun store ->
      with_daemon_ex ~workers:2 ~store (fun sock _pid ->
          let serve batch =
            (* two clients at a time, one per worker *)
            let rec go = function
              | a :: b :: rest ->
                  let fa = Option.get (Srv.Client.try_connect sock)
                  and fb = Option.get (Srv.Client.try_connect sock) in
                  send_analyze ~sources:a fa;
                  send_analyze ~sources:b fb;
                  List.iter
                    (fun fd ->
                      let line =
                        ok_exn (Srv.Client.read_reply (Srv.Client.reader fd))
                      in
                      Srv.Client.close fd;
                      Alcotest.(check string) "served" "ok"
                        (Srv.Client.decode line).Srv.Client.r_status)
                    [ fa; fb ];
                  go rest
              | [ a ] ->
                  Alcotest.(check string) "served" "ok"
                    (ok_exn (Srv.Client.request sock (analyze_json a)))
                      .Srv.Client.r_status
              | [] -> ()
            in
            go batch
          in
          let store_bytes () =
            List.fold_left
              (fun acc f -> acc + (Unix.stat f).Unix.st_size)
              0 (store_files store)
          in
          let heap () = server_int "heap_words" (server_status sock) * (Sys.word_size / 8) in
          serve (List.filteri (fun i _ -> i < 10) programs);
          let heap0 = heap () and bytes0 = store_bytes () in
          serve (List.filteri (fun i _ -> i >= 10) programs);
          let grown = heap () - heap0 and published = store_bytes () - bytes0 in
          Alcotest.(check bool)
            (Printf.sprintf "the workers published summaries (%d bytes)" published)
            true (published > 1_000_000);
          Alcotest.(check bool)
            (Printf.sprintf
               "daemon heap grew %d bytes while %d bytes were published"
               grown published)
            true
            (grown * 4 < published)))

let astreed_dirs tmp =
  Array.to_list (Sys.readdir tmp)
  |> List.filter (fun f -> String.starts_with ~prefix:"astreed-" f)

let test_private_store_lifecycle () =
  (* without --cache the store is private to the daemon: present while
     it serves, removed by a SIGTERM drain and by the shutdown verb *)
  let sources = [ ("cascade.c", prog_cascade) ] in
  with_dir (fun tmp ->
      with_daemon_ex ~tmpdir:tmp (fun sock _pid ->
          ignore (ok_exn (Srv.Client.request sock (analyze_json sources)));
          match astreed_dirs tmp with
          | [ d ] ->
              Alcotest.(check bool) "the private store holds the summaries"
                true
                (store_files (Filename.concat tmp d) <> [])
          | ds -> Alcotest.failf "%d private stores" (List.length ds));
      Alcotest.(check (list string)) "removed after SIGTERM" []
        (astreed_dirs tmp);
      with_daemon_ex ~tmpdir:tmp (fun sock _pid ->
          ignore (ok_exn (Srv.Client.request sock (analyze_json sources)));
          ignore
            (ok_exn
               (Srv.Client.request sock
                  (Srv.Json.Obj [ ("verb", Srv.Json.Str "shutdown") ])));
          (* before the harness's own SIGTERM *)
          let rec gone n =
            if astreed_dirs tmp <> [] && n > 0 then begin
              Unix.sleepf 0.05;
              gone (n - 1)
            end
          in
          gone 200;
          Alcotest.(check (list string)) "removed after the shutdown verb" []
            (astreed_dirs tmp)))

(* ---- chaos soak -------------------------------------------------- *)

let test_chaos_soak () =
  (* a daemon under deterministic chaos — workers that crash on a job
     or die halfway through writing its reply — with looping clients.
     Each reply must be ok and byte-identical to the in-process
     baseline, or a clean error; a transport error fails the test, no
     client may hang (each is alarm-guarded), and the daemon process
     itself never changes *)
  let seed =
    match Option.bind (Sys.getenv_opt "ASTREE_SOAK_SEED") int_of_string_opt
    with
    | Some n -> n
    | None -> 42
  in
  let sources = [ ("t.c", prog_simple) ] in
  let baseline, _ = in_process_report sources in
  with_daemon_ex ~seed
    ~faults:[ (R.Faultsim.Worker_crash, 0.2); (R.Faultsim.Reply_truncate, 0.15) ]
    (fun sock pid ->
      let client i =
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
            (* a client that stops making progress is killed by the
               alarm and fails the test as WSIGNALED *)
            ignore (Unix.alarm 120);
            let bad = ref 0 in
            for j = 1 to 6 do
              match
                Srv.Client.request sock
                  (analyze_json ~id:((i * 100) + j) sources)
              with
              | Ok r when r.Srv.Client.r_status = "ok" -> (
                  match r.Srv.Client.r_report with
                  | Some rep when scrub_time rep = scrub_time baseline -> ()
                  | _ -> incr bad)
              | Ok r when r.Srv.Client.r_status = "error" ->
                  ()  (* an injected worker fault, reported cleanly *)
              | Ok _ | Error _ -> incr bad
            done;
            Unix._exit (if !bad = 0 then 0 else 3)
        | pid -> pid
      in
      let pids = List.init 3 client in
      List.iter
        (fun pid ->
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> ()
          | Unix.WEXITED 3 -> Alcotest.fail "soak client saw a wrong reply"
          | Unix.WEXITED n -> Alcotest.failf "soak client exited %d" n
          | Unix.WSIGNALED n ->
              Alcotest.failf "soak client killed by signal %d (hung?)" n
          | Unix.WSTOPPED _ -> Alcotest.fail "soak client stopped")
        pids;
      Alcotest.(check int) "the daemon survived the storm" pid
        (server_int "pid" (server_status sock)))

(* ---- request ids over the wire ----------------------------------- *)

let test_rid_echo () =
  with_daemon (fun sock ->
      (* a supplied rid is echoed verbatim *)
      let rep =
        ok_exn
          (Srv.Client.request sock
             (Srv.Json.Obj
                [
                  ("verb", Srv.Json.Str "status");
                  ("rid", Srv.Json.Str "r-my-trace-id");
                ]))
      in
      Alcotest.(check (option string))
        "status echoes the rid" (Some "r-my-trace-id")
        rep.Srv.Client.r_rid;
      (* the client stamps analyze requests itself; the daemon echoes *)
      let req = analyze_json ~id:1 [ ("t.c", prog_simple) ] in
      let sent_rid = Srv.Json.to_str (Srv.Json.member "rid" req) in
      Alcotest.(check bool) "client mints a rid" true (sent_rid <> None);
      let rep = ok_exn (Srv.Client.request sock req) in
      Alcotest.(check (option string))
        "analyze echoes the client's rid" sent_rid rep.Srv.Client.r_rid;
      (* a rid-less request still gets one (daemon-minted, unique) *)
      let bare () =
        let rep =
          ok_exn
            (Srv.Client.request sock
               (Srv.Json.Obj [ ("verb", Srv.Json.Str "status") ]))
        in
        match rep.Srv.Client.r_rid with
        | Some r when r <> "" -> r
        | _ -> Alcotest.fail "daemon did not mint a rid"
      in
      let r1 = bare () and r2 = bare () in
      Alcotest.(check bool) "daemon-minted rids are distinct" true (r1 <> r2);
      (* error replies carry the rid too *)
      let rep =
        ok_exn
          (Srv.Client.request sock
             (Srv.Json.Obj
                [
                  ("verb", Srv.Json.Str "explode");
                  ("rid", Srv.Json.Str "r-err-1");
                ]))
      in
      Alcotest.(check string) "unknown verb errors" "error"
        rep.Srv.Client.r_status;
      Alcotest.(check (option string))
        "error reply echoes the rid" (Some "r-err-1") rep.Srv.Client.r_rid)

(* ---- status keys ------------------------------------------------ *)

(* the status verb's server object: exactly these keys, in this order *)
let status_keys =
  [
    "pid"; "uptime_s"; "workers"; "inflight"; "queued"; "served"; "errors";
    "draining"; "dedup_hits"; "recovered"; "store_entries"; "heap_words";
  ]

let test_status_keys () =
  with_daemon (fun sock ->
      let req = analyze_json [ ("t.c", prog_simple) ] in
      ignore (ok_exn (Srv.Client.request sock req));
      match server_status sock with
      | Srv.Json.Obj fields ->
          Alcotest.(check (list string)) "status keys" status_keys
            (List.map fst fields);
          List.iter
            (fun gone ->
              Alcotest.(check bool) ("no " ^ gone ^ " key") false
                (List.mem_assoc gone fields))
            [ "shed"; "queue_depth"; "latency" ]
      | _ -> Alcotest.fail "status reply has no server object")

(* [astree --connect]'s reading of each reply status: only a draining
   daemon's [shutting_down] refuses (exit 4); an unknown status, such as
   the [shed] an older daemon sent, falls back in-process like an error *)
let test_verdict_statuses () =
  let verdict status extra =
    Srv.Client.verdict
      (Ok
         (Srv.Client.decode
            (Printf.sprintf "{\"id\": 1, \"rid\": \"r1\", \"status\": %S%s}"
               status extra)))
  in
  (match verdict "shutting_down" "" with
  | Srv.Client.Refused s -> Alcotest.(check string) "refused" "shutting_down" s
  | _ -> Alcotest.fail "shutting_down must refuse");
  (match verdict "shed" ", \"error\": \"queue full\"" with
  | Srv.Client.Fallback why ->
      Alcotest.(check bool) ("fallback names the error: " ^ why) true
        (has_sub why "queue full")
  | _ -> Alcotest.fail "shed is no longer a refusal");
  (match verdict "ok" ", \"exit\": 1, \"report\": {\"a\": 1}" with
  | Srv.Client.Print (report, code) ->
      Alcotest.(check string) "report bytes" "{\"a\": 1}" report;
      Alcotest.(check int) "exit code" 1 code
  | _ -> Alcotest.fail "ok must print");
  match verdict "error" ", \"error\": \"boom\"" with
  | Srv.Client.Fallback _ -> ()
  | _ -> Alcotest.fail "error must fall back"

let test_access_log_wire () =
  (* every wire request leaves one structured line with the keys the
     benchmark's traced pass reads; a duplicate that attached to an
     in-flight job logs the dedup outcome *)
  let log = Filename.temp_file "astreed-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists log then Sys.remove log)
    (fun () ->
      let dup_rid = ref "" in
      with_daemon_ex ~workers:1 ~access_log:log ~hang:0.5
        ~faults:[ (R.Faultsim.Worker_hang, 1.0) ]
        (fun sock _pid ->
          let fd1 = Option.get (Srv.Client.try_connect sock) in
          let fd2 = Option.get (Srv.Client.try_connect sock) in
          Fun.protect
            ~finally:(fun () ->
              Srv.Client.close fd1;
              Srv.Client.close fd2)
            (fun () ->
              let req = analyze_json [ ("t.c", prog_simple) ] in
              ok_exn (Srv.Client.send fd1 (Srv.Json.to_string req));
              Unix.sleepf 0.2;
              let dup = analyze_json ~id:2 [ ("t.c", prog_simple) ] in
              dup_rid :=
                Option.get (Srv.Json.to_str (Srv.Json.member "rid" dup));
              ok_exn (Srv.Client.send fd2 (Srv.Json.to_string dup));
              List.iter
                (fun fd ->
                  let rep =
                    Srv.Client.decode
                      (ok_exn (Srv.Client.read_reply (Srv.Client.reader fd)))
                  in
                  Alcotest.(check string) "analyze ok" "ok"
                    rep.Srv.Client.r_status)
                [ fd1; fd2 ]);
          let rep =
            ok_exn
              (Srv.Client.request sock
                 (Srv.Json.Obj [ ("verb", Srv.Json.Str "status") ]))
          in
          Alcotest.(check string) "status ok" "ok" rep.Srv.Client.r_status);
      (* daemon reaped by with_daemon_ex: the log is complete *)
      let ic = open_in log in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let records =
        List.rev_map
          (fun l ->
            match Srv.Json.parse l with
            | Ok j -> j
            | Error e -> Alcotest.failf "torn access-log line %s: %s" l e)
          !lines
      in
      let str key j = Srv.Json.to_str (Srv.Json.member key j) in
      let events = List.filter_map (str "event") records in
      Alcotest.(check bool) "log opens with the start event" true
        (List.mem "start" events);
      let requests =
        List.filter (fun j -> str "event" j = Some "request") records
      in
      Alcotest.(check int) "one line per request" 3 (List.length requests);
      List.iter
        (fun j ->
          List.iter
            (fun key ->
              Alcotest.(check bool) ("request line carries " ^ key) true
                (Srv.Json.member key j <> Srv.Json.Null))
            [
              "rid"; "verb"; "digest"; "outcome"; "queue_s"; "service_s";
              "cache_hits";
            ];
          Alcotest.(check bool) "the rid is not empty" true
            (str "rid" j <> Some ""))
        requests;
      let outcomes =
        List.filter_map
          (fun j ->
            if str "verb" j = Some "analyze" then
              Option.map (fun o -> (Option.get (str "rid" j), o)) (str "outcome" j)
            else None)
          requests
      in
      Alcotest.(check (list string)) "analyze outcomes" [ "ok"; "dedup" ]
        (List.map snd outcomes);
      Alcotest.(check (option string)) "the duplicate logs dedup"
        (Some "dedup")
        (List.assoc_opt !dup_rid outcomes))

(* [astree --connect] prints an ok reply, exits 4 on a refusal and
   analyzes in-process on anything else: a transport failure or an
   error reply, such as a worker crash's, must not end the run with a
   usage error *)
let test_error_reply_falls_back () =
  with_daemon ~workers:1 ~faults:[ (R.Faultsim.Worker_crash, 1.0) ]
    (fun sock ->
      match
        Srv.Client.verdict
          (Srv.Client.request sock (analyze_json [ ("t.c", prog_simple) ]))
      with
      | Srv.Client.Fallback why ->
          Alcotest.(check bool) ("the note names the crash: " ^ why) true
            (has_sub why "crash")
      | Srv.Client.Print _ -> Alcotest.fail "a crashed worker's report"
      | Srv.Client.Refused s -> Alcotest.failf "refused (%s)" s);
  (match Srv.Client.verdict (Srv.Client.request (fresh_socket ()) status_req) with
  | Srv.Client.Fallback _ -> ()
  | _ -> Alcotest.fail "no daemon: not a fallback");
  with_daemon (fun sock ->
      let baseline, code = in_process_report [ ("t.c", prog_simple) ] in
      match
        Srv.Client.verdict
          (Srv.Client.request sock (analyze_json [ ("t.c", prog_simple) ]))
      with
      | Srv.Client.Print (report, c) ->
          Alcotest.(check string) "the daemon's report" (scrub_time baseline)
            (scrub_time report);
          Alcotest.(check int) "its exit code" code c
      | _ -> Alcotest.fail "a healthy daemon's reply is printed")

(* ---- json encoder --------------------------------------------- *)

(* The encoder the codec had before its run-copying fast path, one
   [Buffer] call per byte: the new one must print the same bytes. *)
let reference_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec reference_to_string (j : Srv.Json.t) : string =
  match j with
  | Srv.Json.Str s -> "\"" ^ reference_escape s ^ "\""
  | Srv.Json.List l ->
      "[" ^ String.concat ", " (List.map reference_to_string l) ^ "]"
  | Srv.Json.Obj members ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> "\"" ^ reference_escape k ^ "\": " ^ reference_to_string v)
             members)
      ^ "}"
  | j -> Srv.Json.to_string j

(* strings built from the pieces an escaper can get wrong: quotes,
   backslashes, every control byte, DEL, multi-byte UTF-8, plain runs *)
let json_string =
  let piece =
    QCheck.Gen.(
      oneof
        [
          oneofl
            [ "\""; "\\"; "\\u"; "/"; "\n"; "\r"; "\t"; "\x7f"; "\xc3\xa9";
              "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "plain text "; "" ];
          map (fun n -> String.make 1 (Char.chr n)) (int_bound 0x1f);
          map (fun c -> String.make 1 c) char;
        ])
  in
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(map (String.concat "") (list_size (int_bound 24) piece))

let json_string_props =
  [
    QCheck.Test.make ~name:"json strings round-trip" ~count:1000 json_string
      (fun s ->
        let v = Srv.Json.Obj [ (s, Srv.Json.List [ Srv.Json.Str s ]) ] in
        Srv.Json.parse (Srv.Json.to_string v) = Ok v);
    QCheck.Test.make ~name:"json escape prints the reference bytes" ~count:1000
      json_string (fun s -> Srv.Json.escape s = reference_escape s);
  ]

(* the C files of examples/data, found from the test's directory up *)
let example_files () =
  let rec find dir depth =
    let cand = Filename.concat dir "examples/data" in
    if Sys.file_exists cand then cand
    else if depth = 0 then Alcotest.fail "examples/data not found"
    else find (Filename.dirname dir) (depth - 1)
  in
  let dir = find (Sys.getcwd ()) 6 in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (fun f ->
         (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let test_json_encoder_bytes () =
  let requests =
    List.map (fun (f, src) -> analyze_json [ (f, src) ]) (example_files ())
    @ [ analyze_json [ ("m.c", fused_member ~lines:500 ()) ] ]
  in
  List.iter
    (fun req ->
      let line = Srv.Json.to_string req in
      Alcotest.(check string) "the reference encoder's bytes"
        (reference_to_string req) line;
      Alcotest.(check bool) "the request parses back" true
        (Srv.Json.parse line = Ok req))
    requests

(* ---- prepared programs ------------------------------------------ *)

(* one request served in this process as a daemon worker serves it,
   with [store] as the daemon's store *)
let serve_in ~store sources : Srv.Service.served =
  match
    Srv.Service.serve
      {
        Srv.Service.w_sources = sources;
        w_main = "main";
        w_options = { Srv.Service.default_options with Srv.Service.o_cache = `Dir store };
        w_preload = [];
        w_strip_cache = true;
      }
  with
  | Srv.Service.Served sv -> sv
  | Srv.Service.Refused msg -> Alcotest.failf "refused: %s" msg

let check_served ~what (report, code) (sv : Srv.Service.served) =
  Alcotest.(check string) (what ^ ": the one-shot report") (scrub_time report)
    (scrub_time sv.Srv.Service.sv_report);
  Alcotest.(check int) (what ^ ": the one-shot exit code") code
    sv.Srv.Service.sv_exit

(* A daemon worker analyzes on one core: a request at jobs 2, cache
   off, for a member whose main loop splits one-shot ([genfamily --kloc 1
   --seed 1]) is served unsplit, with the -j 1 one-shot report. *)
let test_serve_one_core () =
  R.Faultsim.with_suppressed @@ fun () ->
  let module Metrics = Astree_obs.Metrics in
  let sources =
    [
      ( "m.c",
        (G.Generator.generate
           {
             G.Generator.seed = 1;
             target_lines = 1000;
             mix = G.Shapes.all_safe_kinds;
             bug_ratio = 0.;
             fuse = 1;
           })
          .G.Generator.source );
    ]
  in
  let off = { Srv.Service.default_options with Srv.Service.o_cache = `Off } in
  let j2 = { off with Srv.Service.o_jobs = 2 } in
  let splits f =
    let m0 = Metrics.snapshot () in
    let x = f () in
    ( x,
      Option.value ~default:0
        (Metrics.find_int (Metrics.diff m0) "par.split_loops") )
  in
  let expected = in_process_report ~options:off sources in
  let _, split = splits (fun () -> in_process_report ~options:j2 sources) in
  Alcotest.(check int) "one-shot -j 2: par.split_loops" 1 split;
  let served, split =
    splits (fun () ->
        Srv.Service.serve
          {
            Srv.Service.w_sources = sources;
            w_main = "main";
            w_options = j2;
            w_preload = [];
            w_strip_cache = false;
          })
  in
  Alcotest.(check int) "worker: par.split_loops" 0 split;
  match served with
  | Srv.Service.Served sv -> check_served ~what:"jobs 2, cache off" expected sv
  | Srv.Service.Refused msg -> Alcotest.failf "refused: %s" msg

(* One diagnosis per class of program the analyzer cannot take: the
   line the CLI prints after "astree: " (exit 124) and the message a
   daemon worker refuses the request with. *)
let test_one_diagnosis () =
  List.iter
    (fun (file, src, msg) ->
      let sources = [ (file, src) ] in
      (match C.Analysis.compile sources with
      | _ -> Alcotest.failf "%s compiled" file
      | exception e ->
          Alcotest.(check (option string)) (file ^ ": diagnosis") (Some msg)
            (C.Analysis.diagnosis e));
      match
        Srv.Service.serve
          {
            Srv.Service.w_sources = sources;
            w_main = "main";
            w_options = Srv.Service.default_options;
            w_preload = [];
            w_strip_cache = false;
          }
      with
      | Srv.Service.Refused m -> Alcotest.(check string) (file ^ ": refusal") msg m
      | Srv.Service.Served _ -> Alcotest.failf "%s served" file)
    [
      ( "lex.c",
        "int main(void) { int x = 1 ` 2; return x; }\n",
        "lex.c:1:28: unexpected character '`'" );
      ("parse.c", "int main(void) { return 0 }\n", "parse.c:1:27: expected ; but found }");
      ("type.c", "int main(void) { return y; }\n", "type.c:1:25: unbound variable y");
      ( "pre.c",
        "#if 1\nint main(void) { return 0; }\n",
        "pre.c:3:1: preprocessor: unterminated #if" );
    ];
  (* a callee without a body compiles; its analysis stops *)
  let p, _ =
    C.Analysis.compile
      [ ("anal.c", "int g(int a);\nint main(void) { return g(1); }\n") ]
  in
  match P.Scheduler.analyze p with
  | _ -> Alcotest.fail "anal.c analyzed"
  | exception e ->
      Alcotest.(check (option string)) "anal.c: diagnosis"
        (Some "call to unknown function g") (C.Analysis.diagnosis e)

(* The daemon hands each request to the pool once: a worker that died
   while idle (its pipe closed) is replaced at send time and the job
   runs on the replacement, not failed back to the caller. *)
let test_submit_replaces_dead_worker () =
  let module Pool = Astree_parallel.Pool in
  R.Faultsim.with_suppressed @@ fun () ->
  Pool.with_pool ~jobs:1
    (fun () -> Unix.getpid ())
    (fun pool ->
      let pid =
        match Pool.map pool [ () ] with
        | [ Ok pid ] -> pid
        | _ -> Alcotest.fail "the first job failed"
      in
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      match Pool.submit pool () with
      | None -> Alcotest.fail "the job was not sent to a replacement"
      | Some w -> (
          ignore (Unix.select [ fst (List.hd (Pool.busy_fds pool)) ] [] [] 5.);
          match Pool.reap pool w with
          | Ok pid' ->
              Alcotest.(check bool) "a fresh worker answered" true (pid' <> pid)
          | Error e -> Alcotest.failf "the job failed: %s" e))

(* Serving in-process is an ordinary analysis: the caller's trace sink
   stays attached, so the run's events and the caller's next event both
   reach the caller's file. *)
let test_serve_keeps_trace_sink () =
  let module T = Astree_obs.Trace in
  with_dir (fun store ->
      let path = Filename.temp_file "astree-serve-trace" ".jsonl" in
      let oc = open_out path in
      let enabled0 = !T.enabled in
      T.clear ();
      T.enabled := true;
      T.set_sink oc;
      Fun.protect
        ~finally:(fun () ->
          T.close ();
          close_out_noerr oc;
          T.enabled := enabled0;
          T.clear ();
          Sys.remove path)
        (fun () ->
          ignore (serve_in ~store [ ("sink.c", prog_calls) ]);
          T.emit "after.serve";
          T.flush ();
          let lines =
            In_channel.with_open_bin path In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (fun l -> l <> "")
          in
          let has_kind k l =
            String.starts_with ~prefix:(Printf.sprintf "{\"kind\": \"%s\"" k) l
          in
          Alcotest.(check bool) "the serve's events reach the sink" true
            (List.exists (has_kind "phase.analyze") lines);
          Alcotest.(check bool) "the caller's next event reaches the sink" true
            (List.exists (has_kind "after.serve") lines)))

let test_one_off_programs_unprepared () =
  with_dir (fun store ->
      let sources i =
        [ (Printf.sprintf "once%02d.c" i, prog_simple ^ Printf.sprintf "/* %d */\n" i) ]
      in
      ignore (serve_in ~store (sources 0));
      Alcotest.(check bool) "a program served once holds no record" true
        (Option.is_none (Srv.Service.prepared ~main:"main" (sources 0)));
      for i = 1 to 39 do
        ignore (serve_in ~store (sources i))
      done;
      Alcotest.(check int) "40 one-off programs hold no record" 0
        (Srv.Service.prepared_count ()))

let test_prepared_once () =
  with_dir (fun store ->
      let sources = [ ("thrice.c", prog_calls) ] in
      let expected = in_process_report sources in
      let prepared () = Srv.Service.prepared ~main:"main" sources in
      let sv1 = serve_in ~store sources in
      Alcotest.(check bool) "none after the first request" true
        (Option.is_none (prepared ()));
      let sv2 = serve_in ~store sources in
      let pr = Option.get (prepared ()) in
      Alcotest.(check bool) "the second request kept its frames" true
        (C.Frame.shared_frames pr.C.Transfer.pr_frames > 0);
      let sv3 = serve_in ~store sources in
      Alcotest.(check bool) "the third request reused the record" true
        (Option.get (prepared ()) == pr);
      List.iteri
        (fun i sv ->
          let what = Printf.sprintf "request %d" (i + 1) in
          check_served ~what expected sv;
          Alcotest.(check string) (what ^ ": the fingerprint")
            sv1.Srv.Service.sv_fingerprint sv.Srv.Service.sv_fingerprint)
        [ sv1; sv2; sv3 ])

let test_repeated_requests_exact () =
  let inputs =
    List.map (fun (f, src) -> [ (f, src) ]) (example_files ())
    @ [
        [ ("m.c", fused_member ()) ];
        [ ("e.c", dead_block (fused_member ())) ];
        [ ("a.c", prog_alarm) ];
      ]
  in
  with_daemon_ex ~workers:1 (fun sock _pid ->
      List.iter
        (fun sources ->
          let name = fst (List.hd sources) in
          let report, code = in_process_report sources in
          let replies =
            List.init 3 (fun _ ->
                ok_exn (Srv.Client.request sock (analyze_json sources)))
          in
          List.iteri
            (fun i (r : Srv.Client.reply) ->
              let what = Printf.sprintf "%s, request %d" name (i + 1) in
              Alcotest.(check string) (what ^ " ok") "ok" r.Srv.Client.r_status;
              Alcotest.(check string) (what ^ ": the one-shot report")
                (scrub_time report)
                (scrub_time (Option.get r.Srv.Client.r_report));
              Alcotest.(check int) (what ^ ": the one-shot exit code") code
                r.Srv.Client.r_exit)
            replies)
        inputs)

(* Cell ids are a fact of the prepared program: every run of a kept
   record analyzes with the record's interner, and no run, under any
   configuration, numbers a cell its preparation did not. *)
let test_one_numbering_per_prepared () =
  with_dir (fun store ->
      let sources = [ ("once.c", prog_calls) ] in
      let counts =
        List.init 3 (fun _ ->
            ignore (serve_in ~store sources);
            match Srv.Service.prepared ~main:"main" sources with
            | None -> None
            | Some pr ->
                let a =
                  C.Transfer.make_actx ~prepared:pr pr.C.Transfer.pr_cfg
                    pr.C.Transfer.pr_prog
                in
                Alcotest.(check bool) "a serve analyzes with the kept interner" true
                  (a.C.Transfer.intern == pr.C.Transfer.pr_intern);
                Some (pr, C.Cell.count pr.C.Transfer.pr_intern))
      in
      (match counts with
      | [ None; Some (pr2, n2); Some (pr3, n3) ] ->
          Alcotest.(check bool) "the third serve kept the second's record" true
            (pr2 == pr3);
          Alcotest.(check int) "the third serve numbered no cell" n2 n3
      | _ -> Alcotest.fail "the record was not kept from the second serve on"));
  I.Summary.register ();
  with_dir (fun dir ->
      let tasks =
        G.Generator.generate_tasks
          { G.Generator.default with seed = 5; target_lines = 120; bug_ratio = 1.0 }
          ~tasks:3
      in
      let programs =
        List.map (fun (f, src) -> (f, [], src)) (example_files ())
        @ [ ("tasks.c", tasks.G.Generator.task_fns, tasks.G.Generator.source) ]
      in
      List.iter
        (fun (name, task_fns, src) ->
          let p, _ = C.Analysis.compile ~main:"main" [ (name, src) ] in
          let configs =
            [
              ("default", C.Config.default);
              ("baseline", C.Config.baseline);
              ( "partitioned",
                {
                  C.Config.default with
                  C.Config.partitioned_functions = List.map fst p.F.Tast.p_funs;
                } );
              ( "cache",
                { C.Config.default with C.Config.summary_cache = C.Config.Cache_dir dir } );
            ]
          in
          List.iter
            (fun (what, cfg) ->
              let r =
                if task_fns = [] then C.Analysis.analyze ~cfg p
                else (Astree_conc.Fixpoint.analyze ~cfg ~tasks:task_fns p).c_result
              in
              Alcotest.(check int)
                (Printf.sprintf "%s, %s: the prepared numbering" name what)
                (C.Cell.count (C.Transfer.prepare cfg p).C.Transfer.pr_intern)
                (C.Cell.count r.C.Analysis.r_actx.C.Transfer.intern))
            configs)
        programs)

let suite =
  [
    Alcotest.test_case "json codec round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "options wire round-trip" `Quick
      test_options_roundtrip;
    Alcotest.test_case "every verb round-trips" `Quick test_verbs;
    Alcotest.test_case "client parity with in-process" `Slow
      test_client_parity;
    Alcotest.test_case "concurrent configs match one-shots" `Slow
      test_concurrent_configs;
    Alcotest.test_case
      "requests beyond the in-flight limit queue and are served in order"
      `Quick test_queue_fifo;
    Alcotest.test_case "worker crash is a request error" `Quick
      test_worker_crash;
    Alcotest.test_case "shutdown drains in-flight work" `Quick
      test_shutdown_drains;
    Alcotest.test_case "stale socket file is an error" `Quick
      test_stale_socket_errors;
    Alcotest.test_case "torn or missing reply is an error" `Quick
      test_torn_reply_errors;
    Alcotest.test_case "identical in-flight requests dedup" `Slow test_dedup;
    Alcotest.test_case "closed client's queued work dropped" `Quick
      test_closed_client_dropped;
    Alcotest.test_case "SIGHUP leaves the daemon serving" `Slow
      test_sighup_ignored;
    Alcotest.test_case "store recovers warm state" `Slow
      test_store_recovery;
    Alcotest.test_case "torn store file degrades to cold" `Slow
      test_store_torn;
    Alcotest.test_case "restart replaces a stale socket" `Slow
      test_restart_over_stale_socket;
    Alcotest.test_case "chaos soak: service survives, replies exact" `Slow
      test_chaos_soak;
    Alcotest.test_case "request ids echo end-to-end" `Quick test_rid_echo;
    Alcotest.test_case "status verb reports exactly its keys" `Quick
      test_status_keys;
    Alcotest.test_case "only shutting_down refuses a --connect run" `Quick
      test_verdict_statuses;
    Alcotest.test_case "access log records wire requests" `Quick
      test_access_log_wire;
    Alcotest.test_case "multi-task requests are served" `Quick
      test_multi_task_served;
    Alcotest.test_case "removed backend key is ignored" `Quick
      test_backend_key_ignored;
    Alcotest.test_case "foreign-version store reads cold" `Quick
      test_store_foreign_version;
    Alcotest.test_case "edited request hits its base's summaries" `Slow
      test_edited_request_hits;
    Alcotest.test_case "worker B hits keys worker A published" `Slow
      test_workers_share_the_store;
    Alcotest.test_case "daemon heap flat over 40 programs" `Slow
      test_daemon_heap_flat;
    Alcotest.test_case "private store removed at clean stop" `Quick
      test_private_store_lifecycle;
    Alcotest.test_case "removed cache mode is ignored" `Quick
      test_cache_mem_ignored;
    Alcotest.test_case "error reply falls back in-process" `Quick
      test_error_reply_falls_back;
    Alcotest.test_case "json encoder prints the reference bytes" `Quick
      test_json_encoder_bytes;
    Alcotest.test_case "submit replaces a dead idle worker" `Quick
      test_submit_replaces_dead_worker;
    Alcotest.test_case "in-process serve keeps the trace sink" `Quick
      test_serve_keeps_trace_sink;
    Alcotest.test_case "one-off programs keep no prepared record" `Quick
      test_one_off_programs_unprepared;
    Alcotest.test_case "a program served three times is prepared once" `Quick
      test_prepared_once;
    Alcotest.test_case "repeated requests reply as the one-shot run" `Slow
      test_repeated_requests_exact;
    Alcotest.test_case "one numbering per prepared program" `Quick
      test_one_numbering_per_prepared;
    Alcotest.test_case "a worker analyzes on one core" `Quick
      test_serve_one_core;
    Alcotest.test_case "one diagnosis per error class" `Quick
      test_one_diagnosis;
    Alcotest.test_case "an analysis error is a refusal" `Quick
      test_analysis_error_refused;
  ]
  @ List.map QCheck_alcotest.to_alcotest json_string_props
