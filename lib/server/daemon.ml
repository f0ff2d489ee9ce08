(* The analysis daemon: select()-based event loop over the listening
   socket, the client connections and the pool workers' reply pipes.
   See daemon.mli for the protocol and shutdown contract.

   Single-threaded by construction: every state mutation happens in the
   event loop, so admission control, delta absorption and shutdown need
   no locking.  The analyses themselves run in forked pool workers, one
   request per worker at a time; the workers share function summaries
   through one store directory, never through the daemon. *)

module Pool = Astree_parallel.Pool
module Store = Astree_incremental.Store
module Budget = Astree_robust.Budget
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace
module Observed = Astree_obs.Observed

type config = {
  d_socket : string;
  d_workers : int;
  d_timeout : float;
  d_max_mem : int;
  d_cache_dir : string option;
  d_grace : float;
  d_verbose : bool;
  d_access_log : string option;
}

let default : config =
  {
    d_socket = "astreed.sock";
    d_workers = 4;
    d_timeout = 0.;
    d_max_mem = 0;
    d_cache_dir = None;
    d_grace = 60.;
    d_verbose = false;
    d_access_log = None;
  }

(* ---- metrics ------------------------------------------------------ *)

(* [srv.dedup_hits] is also the status verb's [dedup_hits]: only
   [attach] bumps it, and a daemon runs in a process of its own, so it
   starts at 0 with [run] *)
let m_requests = Metrics.counter "srv.requests"
let m_dedup = Metrics.counter "srv.dedup_hits"

(* ---- connections and requests ------------------------------------ *)

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;          (* bytes read, not yet line-terminated *)
  mutable c_alive : bool;
}

(* a client waiting for one job's reply; several waiters share a
   pending when identical requests were deduplicated onto one worker *)
type waiter = {
  wt_conn : conn;
  wt_id : string;            (* the protocol id, already rendered *)
  wt_rid : string;           (* the request id (tracing/access log) *)
  wt_received : float;
  wt_attached : bool;        (* true: joined an in-flight job (dedup) *)
}

type pending = {
  p_work : Service.work;
  p_digest : string;         (* source digest: trace span and access log *)
  p_key : string;            (* digest + wire options: the dedup key *)
  mutable p_waiters : waiter list;  (* newest first *)
}

type state = {
  st_cfg : config;
  st_pool : (Service.work, Service.outcome Observed.t) Pool.t;
  st_tele : Telemetry.t;
  mutable st_listen : Unix.file_descr option;
  mutable st_conns : conn list;
  st_inflight : (int, pending) Hashtbl.t;       (* pool slot -> request *)
  st_keys : (string, int) Hashtbl.t;            (* dedup key -> pool slot *)
  st_pending : pending Queue.t;  (* admitted, waiting for a worker *)
  st_store : string;         (* the summary store directory *)
  st_started : float;
  mutable st_draining : bool;
  mutable st_drain_t : float;
  mutable st_served : int;
  mutable st_errors : int;
  st_recovered : int;        (* store keys indexed at startup *)
}

let log st fmt =
  Format.kasprintf
    (fun s -> if st.st_cfg.d_verbose then prerr_endline ("astreed: " ^ s))
    fmt

(* ---- socket i/o -------------------------------------------------- *)

let rec write_all fd s off =
  let n = String.length s - off in
  if n > 0 then
    match Unix.write_substring fd s off n with
    | k -> write_all fd s (off + k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let close_conn st conn =
  if conn.c_alive then begin
    conn.c_alive <- false;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    st.st_conns <- List.filter (fun c -> c != conn) st.st_conns;
    (* queued work of a dead client is dropped, so [queued] counts only
       requests someone still waits for *)
    let waited_for pend =
      List.exists (fun w -> w.wt_conn.c_alive) pend.p_waiters
    in
    let kept =
      Queue.of_seq (Seq.filter waited_for (Queue.to_seq st.st_pending))
    in
    Queue.clear st.st_pending;
    Queue.transfer kept st.st_pending
  end

let reply st conn (line : string) =
  if conn.c_alive then
    try write_all conn.c_fd (line ^ "\n") 0
    with Unix.Unix_error _ -> close_conn st conn

(* ---- reply rendering --------------------------------------------- *)

(* every reply echoes the request id so clients, trace spans and
   access-log lines can be joined on it *)
let error_reply ?(rid = "") id msg =
  Printf.sprintf "{\"id\": %s, \"rid\": %s, \"status\": \"error\", \
                  \"error\": %s}"
    id (Report.json_str rid) (Report.json_str msg)

let shutting_down_reply ~rid id =
  Printf.sprintf "{\"id\": %s, \"rid\": %s, \"status\": \"shutting_down\"}" id
    (Report.json_str rid)

(* the report is spliced in verbatim and kept last, so clients can
   extract the exact bytes without reserializing; the metrics and the
   event count are what the worker observed while serving ([o]) *)
let ok_reply ~rid ~id ~received (o : Service.outcome Observed.t)
    (sv : Service.served) ~now =
  let wait = Float.max 0. (now -. received -. sv.Service.sv_time) in
  Printf.sprintf
    "{\"id\": %s, \"rid\": %s, \"status\": \"ok\", \"exit\": %d, \"server\": \
     {\"wait_s\": %.6f, \"analysis_s\": %.6f, \"preloaded\": %d, \
     \"events\": %d, \"metrics\": %s}, \"report\": %s}"
    id (Report.json_str rid) sv.sv_exit wait sv.sv_time sv.sv_loaded
    (List.length o.Observed.events)
    (Metrics.render_snapshot_json ~timers:false o.Observed.metrics)
    sv.sv_report

let status_reply st ~rid id ~now =
  Printf.sprintf
    "{\"id\": %s, \"rid\": %s, \"status\": \"ok\", \"server\": \
     {\"pid\": %d, \"uptime_s\": %.3f, \"workers\": %d, \"inflight\": %d, \
     \"queued\": %d, \"served\": %d, \"errors\": %d, \"draining\": %b, \
     \"dedup_hits\": %d, \"recovered\": %d, \"store_entries\": %d, \
     \"heap_words\": %d}}"
    id (Report.json_str rid) (Unix.getpid ()) (now -. st.st_started)
    (Pool.size st.st_pool)
    (Hashtbl.length st.st_inflight)
    (Queue.length st.st_pending)
    st.st_served st.st_errors st.st_draining (Metrics.value m_dedup)
    st.st_recovered
    (Store.count ~dir:st.st_store)
    (Gc.quick_stat ()).Gc.heap_words

let metrics_reply ~rid id =
  Printf.sprintf "{\"id\": %s, \"rid\": %s, \"status\": \"ok\", \"metrics\": %s}"
    id (Report.json_str rid)
    (Metrics.render_json ~timers:false ())

(* ---- admission --------------------------------------------------- *)

let hard_deadline (pend : pending) =
  let t = pend.p_work.Service.w_options.Service.o_timeout in
  (* the degradation ladder's own envelope is 2x the budget; the pool
     deadline only catches wedged workers, so leave generous slack *)
  if t > 0. then (2. *. t) +. 30. else infinity

let try_submit st pend : bool =
  match Pool.submit ~timeout:(hard_deadline pend) st.st_pool pend.p_work with
  | Some slot ->
      Hashtbl.replace st.st_inflight slot pend;
      Hashtbl.replace st.st_keys pend.p_key slot;
      true
  | None -> false

(* attach a late identical request to the in-flight job computing it *)
let attach st slot pend =
  match Hashtbl.find_opt st.st_inflight slot with
  | None -> ()
  | Some head ->
      let n = List.length pend.p_waiters in
      (* attached waiters are marked so their completion records read
         dedup, not ok: they rode another request's worker *)
      head.p_waiters <-
        List.map (fun w -> { w with wt_attached = true }) pend.p_waiters
        @ head.p_waiters;
      Metrics.add m_dedup n;
      log st "dedup: %d request(s) attached to in-flight job" n

(* FIFO dispatch.  Dedup is re-checked at dispatch: an identical job
   may have been submitted while this one waited.  A job no worker
   takes stays at the head of the queue. *)
let rec drain_queue st =
  if Pool.idle_slots st.st_pool > 0 then
    match Queue.peek_opt st.st_pending with
    | None -> ()
    | Some pend -> (
        match Hashtbl.find_opt st.st_keys pend.p_key with
        | Some slot when Hashtbl.mem st.st_inflight slot ->
            ignore (Queue.pop st.st_pending);
            attach st slot pend;
            drain_queue st
        | _ ->
            if try_submit st pend then begin
              ignore (Queue.pop st.st_pending);
              drain_queue st
            end)

let admit st pend ~now =
  if st.st_draining then
    List.iter
      (fun w ->
        Telemetry.observe st.st_tele ~now ~digest:pend.p_digest
          ~verb:"analyze" ~outcome:`Shutting_down w.wt_rid;
        reply st w.wt_conn (shutting_down_reply ~rid:w.wt_rid w.wt_id))
      pend.p_waiters
  else
    match Hashtbl.find_opt st.st_keys pend.p_key with
    | Some slot when Hashtbl.mem st.st_inflight slot ->
        (* an identical request is already running: share its worker *)
        attach st slot pend
    | _ -> if not (try_submit st pend) then Queue.push pend st.st_pending

(* ---- request handling -------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let request_sources (j : Json.t) : ((string * string) list, string) result =
  match Json.to_list (Json.member "files" j) with
  | Some files ->
      let parsed =
        List.map
          (fun f ->
            match
              ( Json.to_str (Json.member "name" f),
                Json.to_str (Json.member "contents" f) )
            with
            | Some n, Some c -> Some (n, c)
            | _ -> None)
          files
      in
      if List.exists Option.is_none parsed then
        Error "files must be [{\"name\": .., \"contents\": ..}, ..]"
      else if parsed = [] then Error "no input files"
      else Ok (List.filter_map Fun.id parsed)
  | None -> (
      match Json.to_list (Json.member "path" j) with
      | Some paths ->
          let paths = List.filter_map Json.to_str paths in
          if paths = [] then Error "no input files"
          else (
            try Ok (List.map (fun p -> (p, read_file p)) paths)
            with Sys_error msg -> Error msg)
      | None -> Error "analyze needs \"files\" or \"path\"")

let handle_analyze st conn ~rid id (j : Json.t) ~now =
  Metrics.incr m_requests;
  match request_sources j with
  | Error msg ->
      Telemetry.observe st.st_tele ~now ~verb:"analyze" ~outcome:`Error rid;
      reply st conn (error_reply ~rid id msg)
  | Ok sources -> (
      let main =
        Option.value ~default:"main" (Json.to_str (Json.member "main" j))
      in
      let o = Service.options_of_json (Json.member "options" j) in
      (* daemon-level defaults apply when the request brings none *)
      let o =
        {
          o with
          Service.o_timeout =
            (if o.Service.o_timeout > 0. then o.Service.o_timeout
             else st.st_cfg.d_timeout);
          o_max_mem =
            (if o.Service.o_max_mem > 0 then o.Service.o_max_mem
             else st.st_cfg.d_max_mem);
        }
      in
      let digest = Service.source_digest ~main sources in
      (* requests that did not pick a cache run against the daemon's
         store, with the counters stripped from the report for parity
         with a cache-less one-shot run.  An explicit cache choice is
         honored verbatim, so the reply matches the equivalent one-shot
         exactly. *)
      let o, strip =
        if o.Service.o_cache = `Default then
          ({ o with Service.o_cache = `Dir st.st_store }, true)
        else (o, false)
      in
      let work =
        {
          Service.w_sources = sources;
          w_main = main;
          w_options = o;
          w_preload = [];
          w_strip_cache = strip;
        }
      in
      admit st
        {
          p_work = work;
          p_digest = digest;
          p_key = digest ^ "|" ^ Json.to_string (Service.options_to_json o);
          p_waiters =
            [
              {
                wt_conn = conn;
                wt_id = id;
                wt_rid = rid;
                wt_received = now;
                wt_attached = false;
              };
            ];
        }
        ~now)

let handle_line st conn (line : string) ~now =
  match Json.parse line with
  | Error msg ->
      Telemetry.observe st.st_tele ~now ~verb:"?" ~outcome:`Error
        (Telemetry.gen_id ());
      reply st conn (error_reply "null" ("bad request: " ^ msg))
  | Ok j -> (
      let id = Json.to_string (Json.member "id" j) in
      (* clients may mint their own request id; one is assigned here
         otherwise, so every reply/span/log line carries one *)
      let rid =
        match Json.to_str (Json.member "rid" j) with
        | Some r when r <> "" -> r
        | _ -> Telemetry.gen_id ()
      in
      match Json.to_str (Json.member "verb" j) with
      | Some "analyze" -> handle_analyze st conn ~rid id j ~now
      | Some "status" ->
          Telemetry.observe st.st_tele ~now ~verb:"status" ~outcome:`Ok rid;
          reply st conn (status_reply st ~rid id ~now)
      | Some "metrics" ->
          Telemetry.observe st.st_tele ~now ~verb:"metrics" ~outcome:`Ok rid;
          reply st conn (metrics_reply ~rid id)
      | Some "shutdown" ->
          Telemetry.observe st.st_tele ~now ~verb:"shutdown" ~outcome:`Ok rid;
          reply st conn
            (Printf.sprintf "{\"id\": %s, \"rid\": %s, \"status\": \"ok\"}" id
               (Report.json_str rid));
          Budget.interrupt ()
      | Some v ->
          Telemetry.observe st.st_tele ~now ~verb:v ~outcome:`Error rid;
          reply st conn (error_reply ~rid id ("unknown verb: " ^ v))
      | None ->
          Telemetry.observe st.st_tele ~now ~verb:"?" ~outcome:`Error rid;
          reply st conn (error_reply ~rid id "missing verb"))

(* read whatever the connection has, split off complete lines *)
let handle_readable st conn ~now =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.c_fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn st conn
  | 0 -> close_conn st conn
  | n ->
      Buffer.add_subbytes conn.c_buf chunk 0 n;
      let data = Buffer.contents conn.c_buf in
      let lines = String.split_on_char '\n' data in
      let rec go = function
        | [] | [ "" ] -> Buffer.clear conn.c_buf
        | [ partial ] ->
            Buffer.clear conn.c_buf;
            Buffer.add_string conn.c_buf partial
        | line :: rest ->
            if String.trim line <> "" then handle_line st conn line ~now;
            if conn.c_alive then go rest
      in
      go lines

(* ---- worker completions ------------------------------------------ *)

(* A job failed: each waiter, in arrival order, counts an error, is
   logged ([why], when given, follows the request id) and is replied
   [msg]. *)
let fail_waiters st pend ~now ~outcome ?why msg =
  List.iter
    (fun w ->
      st.st_errors <- st.st_errors + 1;
      Option.iter (log st "request %s %s" w.wt_id) why;
      Telemetry.observe st.st_tele ~now ~digest:pend.p_digest
        ~queue_s:(Float.max 0. (now -. w.wt_received))
        ~verb:"analyze" ~outcome w.wt_rid;
      reply st w.wt_conn (error_reply ~rid:w.wt_rid w.wt_id msg))
    (List.rev pend.p_waiters)

let finish st slot ~now =
  match Hashtbl.find_opt st.st_inflight slot with
  | None -> ignore (Pool.reap st.st_pool slot)
  | Some pend ->
      Hashtbl.remove st.st_inflight slot;
      Hashtbl.remove st.st_keys pend.p_key;
      let waiters = List.rev pend.p_waiters in    (* arrival order *)
      (* the originating request (dedup riders joined it later) *)
      let head_rid =
        match waiters with w :: _ -> w.wt_rid | [] -> ""
      in
      (match Pool.reap st.st_pool slot with
      | Ok ({ Observed.value = Service.Served sv; _ } as o) ->
          (* worker deltas land under a srv.request span stamped with
             the request id, so a trace consumer can attribute every
             absorbed event to the request that produced it.  The span
             is opened only around the absorb — never across requests —
             which keeps begin/end strictly nested for the CI trace
             checker. *)
          if !Trace.enabled then
            Trace.span_begin "srv.request"
              ~args:
                [
                  ("rid", Trace.S head_rid);
                  ("verb", Trace.S "analyze");
                  ("digest", Trace.S pend.p_digest);
                ];
          ignore (Observed.absorb o);
          if !Trace.enabled then
            Trace.span_end "srv.request" ~args:[ ("rid", Trace.S head_rid) ];
          let cache_hits =
            Option.value ~default:0
              (Metrics.find_int o.Observed.metrics "cache.hits")
          in
          List.iter
            (fun w ->
              st.st_served <- st.st_served + 1;
              log st "served %s: exit %d, %d alarms, %.3fs" w.wt_id
                sv.Service.sv_exit sv.Service.sv_alarms sv.Service.sv_time;
              Telemetry.observe st.st_tele ~now ~digest:pend.p_digest
                ~queue_s:
                  (Float.max 0. (now -. w.wt_received -. sv.Service.sv_time))
                ~service_s:sv.Service.sv_time ~cache_hits ~verb:"analyze"
                ~outcome:(if w.wt_attached then `Dedup else `Ok)
                w.wt_rid;
              reply st w.wt_conn
                (ok_reply ~rid:w.wt_rid ~id:w.wt_id ~received:w.wt_received
                   o sv ~now))
            waiters
      | Ok { Observed.value = Service.Refused msg; _ } ->
          (* a request-level refusal is not a crash: the worker lived *)
          fail_waiters st pend ~now ~outcome:`Error msg
      | Error msg ->
          fail_waiters st pend ~now ~outcome:`Error ~why:("failed: " ^ msg) msg);
      drain_queue st

let cancel_expired st ~now =
  List.iter
    (fun slot ->
      match Hashtbl.find_opt st.st_inflight slot with
      | None -> Pool.cancel st.st_pool slot
      | Some pend ->
          Hashtbl.remove st.st_inflight slot;
          Hashtbl.remove st.st_keys pend.p_key;
          Pool.cancel st.st_pool slot;
          fail_waiters st pend ~now ~outcome:`Timeout
            ~why:"timed out (hard limit)" "request timed out")
    (Pool.expired_slots st.st_pool ~now);
  drain_queue st

(* ---- shutdown ---------------------------------------------------- *)

let begin_drain st ~now =
  st.st_draining <- true;
  st.st_drain_t <- now;
  (match st.st_listen with
  | Some fd ->
      st.st_listen <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink st.st_cfg.d_socket
       with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ());
  (* emptied before the replies: a reply that fails closes its
     connection, which filters [st_pending] *)
  let queued = Queue.create () in
  Queue.transfer st.st_pending queued;
  Queue.iter
    (fun pend ->
      List.iter
        (fun w ->
          Telemetry.observe st.st_tele ~now ~digest:pend.p_digest
            ~verb:"analyze" ~outcome:`Shutting_down w.wt_rid;
          reply st w.wt_conn (shutting_down_reply ~rid:w.wt_rid w.wt_id))
        (List.rev pend.p_waiters))
    queued;
  Telemetry.event st.st_tele ~now "drain_begin"
    [ ("inflight", Json.Num (float_of_int (Hashtbl.length st.st_inflight))) ];
  log st "shutting down: %d in-flight request(s) draining"
    (Hashtbl.length st.st_inflight)

let force_cancel_inflight st ~now =
  Hashtbl.iter
    (fun slot pend ->
      Pool.cancel st.st_pool slot;
      List.iter
        (fun w ->
          Telemetry.observe st.st_tele ~now ~digest:pend.p_digest
            ~verb:"analyze" ~outcome:`Error w.wt_rid;
          reply st w.wt_conn
            (error_reply ~rid:w.wt_rid w.wt_id
               "canceled: daemon shutting down"))
        (List.rev pend.p_waiters))
    st.st_inflight;
  Hashtbl.reset st.st_inflight;
  Hashtbl.reset st.st_keys

(* ---- socket setup ------------------------------------------------ *)

let bind_socket (path : string) : Unix.file_descr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
     (* a socket file exists: live daemon, or debris from a dead one? *)
     let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let live =
       try
         Unix.connect probe (Unix.ADDR_UNIX path);
         true
       with Unix.Unix_error _ -> false
     in
     (try Unix.close probe with Unix.Unix_error _ -> ());
     if live then begin
       (try Unix.close fd with Unix.Unix_error _ -> ());
       failwith ("a daemon is already listening on " ^ path)
     end
     else begin
       Unix.unlink path;
       Unix.bind fd (Unix.ADDR_UNIX path)
     end);
  Unix.listen fd 64;
  fd

(* ---- the store directory ---------------------------------------- *)

(* The one summary store every worker reads and publishes to: the
   --cache directory, which a daemon restarted on it finds warm; else a
   directory private to this daemon under $TMPDIR (the [bool]), removed
   at clean shutdown. *)
let store_dir (dc : config) : string * bool =
  match dc.d_cache_dir with
  | Some dir -> (dir, false)
  | None -> (Filename.temp_dir "astreed-" "", true)

let remove_dir (dir : string) : unit =
  (match Sys.readdir dir with
  | names ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        names
  | exception Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

(* ---- the event loop ---------------------------------------------- *)

let run (dc : config) : int =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* nothing is reloadable: a leftover [kill -HUP] must neither kill
     nor drain the daemon *)
  Sys.set_signal Sys.sighup Sys.Signal_ignore;
  Budget.install_signal_handlers ();
  match bind_socket dc.d_socket with
  | exception Failure msg ->
      prerr_endline ("astreed: " ^ msg);
      1
  | exception Unix.Unix_error (e, _, _) ->
      prerr_endline
        ("astreed: cannot bind " ^ dc.d_socket ^ ": " ^ Unix.error_message e);
      1
  | listen_fd -> (
      match store_dir dc with
      | exception Sys_error msg ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          (try Unix.unlink dc.d_socket
           with Unix.Unix_error _ | Sys_error _ -> ());
          prerr_endline ("astreed: cannot create the summary store: " ^ msg);
          1
      | store, private_ ->
      (* pool workers are forks of this process: only the daemon itself
         may remove its private store *)
      let owner = Unix.getpid () in
      Fun.protect
        ~finally:(fun () ->
          if private_ && Unix.getpid () = owner then remove_dir store)
      @@ fun () ->
      let st =
        {
          st_cfg = dc;
          st_pool =
            Pool.create ~jobs:(max 1 dc.d_workers) (Observed.job Service.serve);
          st_tele = Telemetry.create dc.d_access_log;
          st_listen = Some listen_fd;
          st_conns = [];
          st_inflight = Hashtbl.create 16;
          st_keys = Hashtbl.create 16;
          st_pending = Queue.create ();
          st_store = store;
          st_started = Unix.gettimeofday ();
          st_draining = false;
          st_drain_t = 0.;
          st_served = 0;
          st_errors = 0;
          st_recovered = Store.count ~dir:store;
        }
      in
      (* a freshly forked (or respawned) worker must not inherit the
         server sockets: a worker's stale copy of a connection fd would
         keep the kernel from delivering EOF after we close it, wedging
         a client mid-read forever *)
      Pool.at_child_fork :=
        Some
          (fun () ->
            (match st.st_listen with
            | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
            | None -> ());
            (* the worker must not inherit the access-log channel:
               its buffered bytes belong to the daemon alone *)
            Telemetry.close st.st_tele;
            List.iter
              (fun c ->
                try Unix.close c.c_fd with Unix.Unix_error _ -> ())
              st.st_conns);
      Telemetry.event st.st_tele ~now:(Unix.gettimeofday ()) "start"
        [
          ("pid", Json.Num (float_of_int (Unix.getpid ())));
          ("socket", Json.Str dc.d_socket);
          ("store", Json.Str store);
          ("recovered", Json.Num (float_of_int st.st_recovered));
        ];
      log st "listening on %s (%d worker(s)%s)" dc.d_socket
        (Pool.size st.st_pool)
        (if st.st_recovered > 0 then
           Printf.sprintf ", %d summaries in %s" st.st_recovered store
         else "");
      let rec loop () =
        let now = Unix.gettimeofday () in
        if Budget.interrupt_pending () && not st.st_draining then
          begin_drain st ~now;
        if st.st_draining && Hashtbl.length st.st_inflight = 0 then ()
        else begin
          if
            st.st_draining
            && now -. st.st_drain_t > st.st_cfg.d_grace
            && Hashtbl.length st.st_inflight > 0
          then force_cancel_inflight st ~now;
          if st.st_draining && Hashtbl.length st.st_inflight = 0 then ()
          else begin
            let busy = Pool.busy_fds st.st_pool in
            let rfds =
              (match st.st_listen with Some fd -> [ fd ] | None -> [])
              @ List.map (fun c -> c.c_fd) st.st_conns
              @ List.map fst busy
            in
            let timeout =
              let deadline = Pool.next_deadline st.st_pool in
              if deadline = infinity then 1.0
              else Float.max 0.01 (Float.min 1.0 (deadline -. now))
            in
            (match Unix.select rfds [] [] timeout with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | ready, _, _ ->
                let now = Unix.gettimeofday () in
                (* worker completions first: they free slots the queued
                   requests are waiting for *)
                List.iter
                  (fun (fd, slot) ->
                    if List.mem fd ready then finish st slot ~now)
                  busy;
                List.iter
                  (fun conn ->
                    if conn.c_alive && List.mem conn.c_fd ready then
                      handle_readable st conn ~now)
                  st.st_conns;
                (match st.st_listen with
                | Some fd when List.mem fd ready -> (
                    match Unix.accept fd with
                    | exception Unix.Unix_error _ -> ()
                    | cfd, _ ->
                        st.st_conns <-
                          { c_fd = cfd; c_buf = Buffer.create 256;
                            c_alive = true }
                          :: st.st_conns;
                        log st "client connected (%d total)"
                          (List.length st.st_conns))
                | _ -> ()));
            let now = Unix.gettimeofday () in
            cancel_expired st ~now;
            loop ()
          end
        end
      in
      loop ();
      List.iter (fun conn -> close_conn st conn) st.st_conns;
      Pool.shutdown st.st_pool;
      (match st.st_listen with
      | Some fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          (try Unix.unlink dc.d_socket
           with Unix.Unix_error _ | Sys_error _ -> ())
      | None -> ());
      Telemetry.event st.st_tele ~now:(Unix.gettimeofday ()) "exit"
        [
          ("served", Json.Num (float_of_int st.st_served));
          ("errors", Json.Num (float_of_int st.st_errors));
        ];
      Telemetry.close st.st_tele;
      log st "exited cleanly (%d served, %d errors)" st.st_served
        st.st_errors;
      0)
