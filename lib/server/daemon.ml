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
module Faultsim = Astree_robust.Faultsim
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace

type config = {
  d_socket : string;
  d_workers : int;
  d_queue_depth : int;
  d_timeout : float;
  d_max_mem : int;
  d_cache_dir : string option;
  d_grace : float;
  d_verbose : bool;
  d_client_quota : int;
  d_breaker_n : int;
  d_breaker_cooldown : float;
  d_config_file : string option;
  d_restarts : int;
  d_supervised : bool;
  d_sup_started : float;
  d_http_port : int option;        (* Some p: telemetry HTTP on 127.0.0.1:p *)
  d_access_log : string option;
  d_access_log_max : int;
}

let default : config =
  {
    d_socket = "astreed.sock";
    d_workers = 4;
    d_queue_depth = 32;
    d_timeout = 0.;
    d_max_mem = 0;
    d_cache_dir = None;
    d_grace = 60.;
    d_verbose = false;
    d_client_quota = 0;
    d_breaker_n = 3;
    d_breaker_cooldown = 30.;
    d_config_file = None;
    d_restarts = 0;
    d_supervised = false;
    d_sup_started = 0.;
    d_http_port = None;
    d_access_log = None;
    d_access_log_max = 8 * 1024 * 1024;
  }

(* ---- hot-reloadable configuration -------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* only admission-time knobs are reloadable: the socket, worker count
   and store directory identify the daemon instance and stay fixed *)
let overlay_config (cfg : config) (j : Json.t) : config =
  if Json.member "checkpoint_period" j <> Json.Null then
    prerr_endline
      "astreed: note: checkpoint_period is ignored: every request \
       publishes its summaries to the store";
  let num key dflt = Option.value ~default:dflt (Json.to_num (Json.member key j)) in
  let int key dflt = Option.value ~default:dflt (Json.to_int (Json.member key j)) in
  {
    cfg with
    d_queue_depth = int "queue_depth" cfg.d_queue_depth;
    d_grace = num "grace" cfg.d_grace;
    d_timeout = num "timeout" cfg.d_timeout;
    d_max_mem = int "max_mem" cfg.d_max_mem;
    d_client_quota = int "client_quota" cfg.d_client_quota;
    d_breaker_n = int "breaker_crashes" cfg.d_breaker_n;
    d_breaker_cooldown = num "breaker_cooldown" cfg.d_breaker_cooldown;
  }

let load_config_file (cfg : config) (file : string) : (config, string) result =
  match read_file file with
  | exception Sys_error msg -> Error msg
  | s -> (
      match Json.parse s with
      | Error msg -> Error (file ^ ": " ^ msg)
      | Ok j -> Ok (overlay_config cfg j))

(* ---- metrics ------------------------------------------------------ *)

let m_requests = Metrics.counter "srv.requests"
let m_shed = Metrics.counter "srv.shed"
let m_dedup = Metrics.counter "srv.dedup_hits"
let m_breaker = Metrics.counter "srv.breaker_open"

(* ---- connections and requests ------------------------------------ *)

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;          (* bytes read, not yet line-terminated *)
  mutable c_alive : bool;
  c_queue : pending Queue.t; (* this client's admitted-but-waiting jobs *)
}

(* a client waiting for one job's reply; several waiters share a
   pending when identical requests were deduplicated onto one worker *)
and waiter = {
  wt_conn : conn;
  wt_id : string;            (* the protocol id, already rendered *)
  wt_rid : string;           (* the request id (tracing/access log) *)
  wt_received : float;
  wt_attached : bool;        (* true: joined an in-flight job (dedup) *)
}

and pending = {
  p_work : Service.work;
  p_digest : string;         (* source digest: breaker and access log *)
  p_key : string;            (* digest + wire options: the dedup key *)
  mutable p_waiters : waiter list;  (* newest first *)
}

type state = {
  mutable st_cfg : config;
  mutable st_gen : int;      (* config generation, bumped by SIGHUP *)
  st_pool : (Service.work, Service.outcome) Pool.t;
  st_tele : Telemetry.t;
  st_http : Http.t option;
  mutable st_listen : Unix.file_descr option;
  mutable st_conns : conn list;
  st_inflight : (int, pending) Hashtbl.t;       (* pool slot -> request *)
  st_keys : (string, int) Hashtbl.t;            (* dedup key -> pool slot *)
  st_rr : conn Queue.t;      (* round-robin dispatch order; a conn is
                                present at most once, iff its queue may
                                be nonempty *)
  mutable st_queued : int;   (* total requests across all conn queues *)
  st_store : string;         (* the summary store directory *)
  (* circuit breaker: digest -> (consecutive crashes, last crash time) *)
  st_breaker : (string, int * float) Hashtbl.t;
  st_lat : float array;      (* ring of recent analysis times (p50) *)
  mutable st_lat_n : int;
  st_started : float;
  mutable st_draining : bool;
  mutable st_drain_t : float;
  mutable st_served : int;
  mutable st_shed : int;
  mutable st_errors : int;
  mutable st_dedup : int;
  mutable st_breaker_rejects : int;
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
    (* queued work of a dead client is dropped; any st_rr entry for the
       conn becomes a no-op the dispatcher skips *)
    st.st_queued <- st.st_queued - Queue.length conn.c_queue;
    Queue.clear conn.c_queue
  end

let reply st conn (line : string) =
  if conn.c_alive then
    if Faultsim.fires Faultsim.Conn_drop then begin
      (* the connection dies instead of the reply arriving: the client
         sees a reset and must retry *)
      log st "fault injection: dropping connection before reply";
      close_conn st conn
    end
    else if Faultsim.fires Faultsim.Reply_partial then begin
      (* a torn wire write: half the line, then the connection dies.
         The client's reader sees an unterminated line + EOF. *)
      log st "fault injection: writing partial reply";
      let s = line ^ "\n" in
      (try write_all conn.c_fd (String.sub s 0 (String.length s / 2)) 0
       with Unix.Unix_error _ -> ());
      close_conn st conn
    end
    else
      try write_all conn.c_fd (line ^ "\n") 0
      with Unix.Unix_error _ -> close_conn st conn

(* ---- reply rendering --------------------------------------------- *)

(* every reply echoes the request id so clients, trace spans and
   access-log lines can be joined on it *)
let error_reply ?(rid = "") id msg =
  Printf.sprintf "{\"id\": %s, \"rid\": %s, \"status\": \"error\", \
                  \"error\": %s}"
    id (Report.json_str rid) (Report.json_str msg)

let shed_reply ?(error = "queue full") ~rid id ~retry_after =
  Printf.sprintf
    "{\"id\": %s, \"rid\": %s, \"status\": \"shed\", \"error\": %s, \
     \"retry_after_s\": %.3f}"
    id (Report.json_str rid) (Report.json_str error) retry_after

let shutting_down_reply ~rid id =
  Printf.sprintf "{\"id\": %s, \"rid\": %s, \"status\": \"shutting_down\"}" id
    (Report.json_str rid)

(* the report is spliced in verbatim and kept last, so clients can
   extract the exact bytes without reserializing *)
let ok_reply ~rid ~id ~received (sv : Service.served) ~now =
  let wait = Float.max 0. (now -. received -. sv.Service.sv_time) in
  Printf.sprintf
    "{\"id\": %s, \"rid\": %s, \"status\": \"ok\", \"exit\": %d, \"server\": \
     {\"wait_s\": %.6f, \"analysis_s\": %.6f, \"preloaded\": %d, \
     \"events\": %d, \"metrics\": %s}, \"report\": %s}"
    id (Report.json_str rid) sv.sv_exit wait sv.sv_time sv.sv_loaded
    (List.length sv.sv_events)
    (Metrics.render_snapshot_json ~timers:false sv.sv_metrics)
    sv.sv_report

(* breaker states: open (tripped, inside the cooldown), half-open
   (tripped, cooldown elapsed — the next request is the probe) *)
let breaker_counts st ~now =
  if st.st_cfg.d_breaker_n <= 0 then (0, 0)
  else
    Hashtbl.fold
      (fun _ (n, t) (opened, half) ->
        if n >= st.st_cfg.d_breaker_n then
          if now -. t < st.st_cfg.d_breaker_cooldown then (opened + 1, half)
          else (opened, half + 1)
        else (opened, half))
      st.st_breaker (0, 0)

let open_breakers st ~now = fst (breaker_counts st ~now)

(* the status body, shared between the status verb and GET /status *)
let status_json st ~now =
  let opened, half_open = breaker_counts st ~now in
  Printf.sprintf
    "{\"pid\": %d, \
     \"uptime_s\": %.3f, \"workers\": %d, \"inflight\": %d, \
     \"queued\": %d, \"served\": %d, \"shed\": %d, \"errors\": %d, \
     \"draining\": %b, \"supervised\": %b, \
     \"restarts\": %d, \"supervisor_uptime_s\": %.3f, \
     \"config_generation\": %d, \"queue_depth\": %d, \
     \"dedup_hits\": %d, \"breaker_open\": %d, \"breaker_rejects\": %d, \
     \"recovered\": %d, \"store_entries\": %d, \"heap_words\": %d, \
     \"breakers\": {\"open\": %d, \"half_open\": %d}, \"latency\": %s}"
    (Unix.getpid ()) (now -. st.st_started)
    (Pool.size st.st_pool)
    (Hashtbl.length st.st_inflight)
    st.st_queued st.st_served st.st_shed st.st_errors st.st_draining
    st.st_cfg.d_supervised st.st_cfg.d_restarts
    (if st.st_cfg.d_sup_started > 0. then now -. st.st_cfg.d_sup_started
     else 0.)
    st.st_gen st.st_cfg.d_queue_depth st.st_dedup opened
    st.st_breaker_rejects st.st_recovered
    (Store.count ~dir:st.st_store)
    (Gc.quick_stat ()).Gc.heap_words opened half_open
    (Telemetry.quantiles_json st.st_tele)

let status_reply st ~rid id ~now =
  Printf.sprintf "{\"id\": %s, \"rid\": %s, \"status\": \"ok\", \"server\": %s}"
    id (Report.json_str rid) (status_json st ~now)

let metrics_reply ~rid id =
  Printf.sprintf "{\"id\": %s, \"rid\": %s, \"status\": \"ok\", \"metrics\": %s}"
    id (Report.json_str rid)
    (Metrics.render_json ~timers:false ())

(* ---- admission --------------------------------------------------- *)

let quota st =
  if st.st_cfg.d_client_quota > 0 then st.st_cfg.d_client_quota
  else max 1 (st.st_cfg.d_queue_depth / 2)

(* estimated time until a worker frees up: how much work is ahead of a
   retrying client, paced by the recent median analysis time.  Clamped
   to keep pathological estimates from parking clients for minutes. *)
let retry_after st =
  let n = min st.st_lat_n (Array.length st.st_lat) in
  let p50 =
    if n = 0 then 0.1
    else begin
      let a = Array.sub st.st_lat 0 n in
      Array.sort compare a;
      a.(n / 2)
    end
  in
  let ahead = st.st_queued + Hashtbl.length st.st_inflight + 1 in
  let est =
    float_of_int ahead *. p50
    /. float_of_int (max 1 (Pool.size st.st_pool))
  in
  Float.min 60. (Float.max 0.05 est)

let record_latency st t =
  st.st_lat.(st.st_lat_n mod Array.length st.st_lat) <- t;
  st.st_lat_n <- st.st_lat_n + 1

let tele_record st ~now ?(digest = "") ?(queue_s = 0.) ?(service_s = 0.)
    ?(cache_hits = 0) ~verb ~outcome rid =
  Telemetry.observe st.st_tele ~now
    {
      Telemetry.rc_rid = rid;
      rc_verb = verb;
      rc_digest = digest;
      rc_outcome = outcome;
      rc_queue_s = queue_s;
      rc_service_s = service_s;
      rc_cache_hits = cache_hits;
    }

let hard_deadline (pend : pending) =
  let t = pend.p_work.Service.w_options.Service.o_timeout in
  (* the degradation ladder's own envelope is 2x the budget; the pool
     deadline only catches wedged workers, so leave generous slack *)
  if t > 0. then (2. *. t) +. 30. else infinity

let try_submit st pend : bool =
  let rec go attempts =
    if attempts = 0 then false
    else
      match
        Pool.submit ~timeout:(hard_deadline pend) st.st_pool pend.p_work
      with
      | Some slot ->
          Hashtbl.replace st.st_inflight slot pend;
          Hashtbl.replace st.st_keys pend.p_key slot;
          true
      | None ->
          (* all busy — or a dead pipe was respawned; retry in the
             latter case *)
          if Pool.idle_slots st.st_pool > 0 then go (attempts - 1) else false
  in
  go (Pool.size st.st_pool)

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
      st.st_dedup <- st.st_dedup + n;
      Metrics.add m_dedup n;
      log st "dedup: %d request(s) attached to in-flight job" n

let requeue_front conn pend =
  let rest = Queue.create () in
  Queue.transfer conn.c_queue rest;
  Queue.push pend conn.c_queue;
  Queue.transfer rest conn.c_queue

(* round-robin dispatch: one queued job per client per turn, so a
   client that batched fifty requests cannot starve the one that sent
   one.  Dedup is re-checked at dispatch: an identical job may have
   been submitted while this one waited. *)
let rec drain_queue st =
  if st.st_queued > 0 && Pool.idle_slots st.st_pool > 0 then
    match Queue.take_opt st.st_rr with
    | None -> ()  (* only dead conns held queued work; accounting reset *)
    | Some conn ->
        if (not conn.c_alive) || Queue.is_empty conn.c_queue then
          drain_queue st
        else begin
          let pend = Queue.pop conn.c_queue in
          st.st_queued <- st.st_queued - 1;
          let requeued_conn = not (Queue.is_empty conn.c_queue) in
          if requeued_conn then Queue.push conn st.st_rr;
          match Hashtbl.find_opt st.st_keys pend.p_key with
          | Some slot when Hashtbl.mem st.st_inflight slot ->
              attach st slot pend;
              drain_queue st
          | _ ->
              if try_submit st pend then drain_queue st
              else begin
                (* no worker took it after all: put it back in front *)
                requeue_front conn pend;
                st.st_queued <- st.st_queued + 1;
                if not requeued_conn then Queue.push conn st.st_rr
              end
        end

let admit st conn pend ~now =
  if st.st_draining then
    List.iter
      (fun w ->
        tele_record st ~now ~digest:pend.p_digest ~verb:"analyze"
          ~outcome:`Shutting_down w.wt_rid;
        reply st w.wt_conn (shutting_down_reply ~rid:w.wt_rid w.wt_id))
      pend.p_waiters
  else
    match Hashtbl.find_opt st.st_keys pend.p_key with
    | Some slot when Hashtbl.mem st.st_inflight slot ->
        (* an identical request is already running: share its worker *)
        attach st slot pend
    | _ ->
        if try_submit st pend then ()
        else if st.st_queued >= st.st_cfg.d_queue_depth then begin
          st.st_shed <- st.st_shed + 1;
          Metrics.incr m_shed;
          let retry_after = retry_after st in
          List.iter
            (fun w ->
              log st "shed request %s (queue full)" w.wt_id;
              tele_record st ~now ~digest:pend.p_digest ~verb:"analyze"
                ~outcome:`Shed w.wt_rid;
              reply st w.wt_conn
                (shed_reply ~rid:w.wt_rid w.wt_id ~retry_after))
            pend.p_waiters
        end
        else if Queue.length conn.c_queue >= quota st then begin
          (* fairness: this client already holds its share of the queue *)
          st.st_shed <- st.st_shed + 1;
          Metrics.incr m_shed;
          let retry_after = retry_after st in
          List.iter
            (fun w ->
              log st "shed request %s (client quota)" w.wt_id;
              tele_record st ~now ~digest:pend.p_digest ~verb:"analyze"
                ~outcome:`Shed w.wt_rid;
              reply st w.wt_conn
                (shed_reply ~error:"client quota exceeded" ~rid:w.wt_rid
                   w.wt_id ~retry_after))
            pend.p_waiters
        end
        else begin
          Queue.push pend conn.c_queue;
          st.st_queued <- st.st_queued + 1;
          if Queue.length conn.c_queue = 1 then Queue.push conn st.st_rr
        end

(* ---- request handling -------------------------------------------- *)

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
  (* the supervisor's reason to exist: the daemon can die abruptly at
     the worst moment — mid-admission, request unreplied *)
  if Faultsim.fires Faultsim.Daemon_crash then Unix._exit 70;
  match request_sources j with
  | Error msg ->
      tele_record st ~now ~verb:"analyze" ~outcome:`Error rid;
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
      (* circuit breaker: a program whose analysis crashed the worker
         [d_breaker_n] times in a row is refused with a clean error
         instead of burning another respawn; after the cooldown one
         probe request is let through (half-open) *)
      match Hashtbl.find_opt st.st_breaker digest with
      | Some (n, t)
        when st.st_cfg.d_breaker_n > 0
             && n >= st.st_cfg.d_breaker_n
             && now -. t < st.st_cfg.d_breaker_cooldown ->
          st.st_breaker_rejects <- st.st_breaker_rejects + 1;
          tele_record st ~now ~digest ~verb:"analyze" ~outcome:`Breaker_open
            rid;
          reply st conn
            (error_reply ~rid id
               (Printf.sprintf
                  "circuit breaker open: analysis crashed %d times in a \
                   row for this program; retrying in %.0fs"
                  n
                  (st.st_cfg.d_breaker_cooldown -. (now -. t))))
      | _ ->
          (* requests that did not pick a cache run against the
             daemon's store, with the counters stripped from the report
             for parity with a cache-less one-shot run.  An explicit
             cache choice is honored verbatim, so the reply matches the
             equivalent one-shot exactly. *)
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
          admit st conn
            {
              p_work = work;
              p_digest = digest;
              p_key =
                digest ^ "|" ^ Json.to_string (Service.options_to_json o);
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
      tele_record st ~now ~verb:"?" ~outcome:`Error (Telemetry.gen_id ());
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
          tele_record st ~now ~verb:"status" ~outcome:`Ok rid;
          reply st conn (status_reply st ~rid id ~now)
      | Some "metrics" ->
          tele_record st ~now ~verb:"metrics" ~outcome:`Ok rid;
          reply st conn (metrics_reply ~rid id)
      | Some "shutdown" ->
          tele_record st ~now ~verb:"shutdown" ~outcome:`Ok rid;
          reply st conn
            (Printf.sprintf "{\"id\": %s, \"rid\": %s, \"status\": \"ok\"}" id
               (Report.json_str rid));
          Budget.interrupt ()
      | Some v ->
          tele_record st ~now ~verb:v ~outcome:`Error rid;
          reply st conn (error_reply ~rid id ("unknown verb: " ^ v))
      | None ->
          tele_record st ~now ~verb:"?" ~outcome:`Error rid;
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
      | Ok (Service.Served sv) ->
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
          Metrics.absorb sv.Service.sv_metrics;
          if !Trace.enabled then begin
            Trace.absorb sv.Service.sv_events;
            Trace.span_end "srv.request" ~args:[ ("rid", Trace.S head_rid) ]
          end;
          record_latency st sv.Service.sv_time;
          Hashtbl.remove st.st_breaker pend.p_digest;
          let cache_hits =
            Option.value ~default:0
              (Metrics.find_int sv.Service.sv_metrics "cache.hits")
          in
          List.iter
            (fun w ->
              st.st_served <- st.st_served + 1;
              log st "served %s: exit %d, %d alarms, %.3fs" w.wt_id
                sv.Service.sv_exit sv.Service.sv_alarms sv.Service.sv_time;
              tele_record st ~now ~digest:pend.p_digest
                ~queue_s:
                  (Float.max 0. (now -. w.wt_received -. sv.Service.sv_time))
                ~service_s:sv.Service.sv_time ~cache_hits ~verb:"analyze"
                ~outcome:(if w.wt_attached then `Dedup else `Ok)
                w.wt_rid;
              reply st w.wt_conn
                (ok_reply ~rid:w.wt_rid ~id:w.wt_id ~received:w.wt_received
                   sv ~now))
            waiters
      | Ok (Service.Refused msg) ->
          (* a request-level refusal is not a crash: the worker lived *)
          Hashtbl.remove st.st_breaker pend.p_digest;
          List.iter
            (fun w ->
              st.st_errors <- st.st_errors + 1;
              tele_record st ~now ~digest:pend.p_digest
                ~queue_s:(Float.max 0. (now -. w.wt_received))
                ~verb:"analyze" ~outcome:`Error w.wt_rid;
              reply st w.wt_conn (error_reply ~rid:w.wt_rid w.wt_id msg))
            waiters
      | Error msg ->
          if msg = "worker crashed" && st.st_cfg.d_breaker_n > 0 then begin
            let n =
              match Hashtbl.find_opt st.st_breaker pend.p_digest with
              | Some (n, _) -> n + 1
              | None -> 1
            in
            Hashtbl.replace st.st_breaker pend.p_digest (n, now);
            if n = st.st_cfg.d_breaker_n then begin
              Metrics.incr m_breaker;
              log st "circuit breaker opened: %d consecutive crashes" n
            end
          end;
          List.iter
            (fun w ->
              st.st_errors <- st.st_errors + 1;
              log st "request %s failed: %s" w.wt_id msg;
              tele_record st ~now ~digest:pend.p_digest
                ~queue_s:(Float.max 0. (now -. w.wt_received))
                ~verb:"analyze" ~outcome:`Error w.wt_rid;
              reply st w.wt_conn (error_reply ~rid:w.wt_rid w.wt_id msg))
            waiters);
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
          List.iter
            (fun w ->
              st.st_errors <- st.st_errors + 1;
              log st "request %s timed out (hard limit)" w.wt_id;
              tele_record st ~now ~digest:pend.p_digest
                ~queue_s:(Float.max 0. (now -. w.wt_received))
                ~verb:"analyze" ~outcome:`Timeout w.wt_rid;
              reply st w.wt_conn
                (error_reply ~rid:w.wt_rid w.wt_id "request timed out"))
            (List.rev pend.p_waiters))
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
  List.iter
    (fun conn ->
      Queue.iter
        (fun pend ->
          List.iter
            (fun w ->
              tele_record st ~now ~digest:pend.p_digest ~verb:"analyze"
                ~outcome:`Shutting_down w.wt_rid;
              reply st w.wt_conn (shutting_down_reply ~rid:w.wt_rid w.wt_id))
            (List.rev pend.p_waiters))
        conn.c_queue;
      Queue.clear conn.c_queue)
    st.st_conns;
  st.st_queued <- 0;
  Queue.clear st.st_rr;
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
          tele_record st ~now ~digest:pend.p_digest ~verb:"analyze"
            ~outcome:`Error w.wt_rid;
          reply st w.wt_conn
            (error_reply ~rid:w.wt_rid w.wt_id
               "canceled: daemon shutting down"))
        (List.rev pend.p_waiters))
    st.st_inflight;
  Hashtbl.reset st.st_inflight;
  Hashtbl.reset st.st_keys

(* ---- SIGHUP hot reload ------------------------------------------- *)

let hup_pending = ref false

let reload st =
  match st.st_cfg.d_config_file with
  | None -> log st "SIGHUP: no --config file to reload, ignored"
  | Some file -> (
      match load_config_file st.st_cfg file with
      | Error msg ->
          prerr_endline
            ("astreed: warning: SIGHUP reload failed, keeping config: " ^ msg)
      | Ok cfg ->
          (* in-flight requests already carry their resolved options;
             only future admissions see the new knobs *)
          st.st_cfg <- cfg;
          st.st_gen <- st.st_gen + 1;
          log st "config reloaded from %s (generation %d)" file st.st_gen)

(* ---- telemetry HTTP endpoints ------------------------------------ *)

(* readiness: able to accept an analyze request right now.  Distinct
   from liveness — a draining or saturated daemon is alive but a load
   balancer should stop routing to it. *)
let readiness st ~now : (unit, string) result =
  if st.st_draining then Error "draining"
  else if st.st_queued >= st.st_cfg.d_queue_depth then Error "queue full"
  else begin
    let opened = open_breakers st ~now in
    if opened > 0 && opened = Hashtbl.length st.st_breaker then
      Error "all circuit breakers open"
    else Ok ()
  end

let http_handle st (path : string) : int * string * string =
  let now = Unix.gettimeofday () in
  match path with
  | "/metrics" ->
      ( 200,
        "text/plain; version=0.0.4; charset=utf-8",
        Telemetry.render_prometheus st.st_tele ~now (Metrics.snapshot ()) )
  | "/healthz" -> (200, "text/plain", "ok\n")
  | "/readyz" -> (
      match readiness st ~now with
      | Ok () -> (200, "text/plain", "ready\n")
      | Error why -> (503, "text/plain", "not ready: " ^ why ^ "\n"))
  | "/status" -> (200, "application/json", status_json st ~now ^ "\n")
  | _ -> (404, "text/plain", "not found\n")

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
   --cache directory; SOCKET.store under supervision, so a restarted
   daemon comes back warm; else a directory private to this daemon
   under $TMPDIR (the [bool]), removed at clean shutdown. *)
let store_dir (dc : config) : string * bool =
  match dc.d_cache_dir with
  | Some dir -> (dir, false)
  | None when dc.d_supervised -> (dc.d_socket ^ ".store", false)
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
  Sys.set_signal Sys.sighup
    (Sys.Signal_handle (fun _ -> hup_pending := true));
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
      match
        Result.bind
          (match dc.d_http_port with
          | None -> Ok None
          | Some p -> Result.map Option.some (Http.create ~port:p))
          (fun http ->
            match store_dir dc with
            | dir -> Ok (http, dir)
            | exception Sys_error msg ->
                Option.iter Http.close http;
                Error ("cannot create the summary store: " ^ msg))
      with
      | Error msg ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          (try Unix.unlink dc.d_socket
           with Unix.Unix_error _ | Sys_error _ -> ());
          prerr_endline ("astreed: " ^ msg);
          1
      | Ok (http, (store, private_)) ->
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
          st_gen = 0;
          st_pool = Pool.create ~jobs:(max 1 dc.d_workers) Service.serve;
          st_tele =
            Telemetry.create ?access_log:dc.d_access_log
              ~max_log_bytes:dc.d_access_log_max ~now:(Unix.gettimeofday ())
              ();
          st_http = http;
          st_listen = Some listen_fd;
          st_conns = [];
          st_inflight = Hashtbl.create 16;
          st_keys = Hashtbl.create 16;
          st_rr = Queue.create ();
          st_queued = 0;
          st_store = store;
          st_breaker = Hashtbl.create 16;
          st_lat = Array.make 32 0.;
          st_lat_n = 0;
          st_started = Unix.gettimeofday ();
          st_draining = false;
          st_drain_t = 0.;
          st_served = 0;
          st_shed = 0;
          st_errors = 0;
          st_dedup = 0;
          st_breaker_rejects = 0;
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
            (match st.st_http with
            | Some h ->
                List.iter
                  (fun fd ->
                    try Unix.close fd with Unix.Unix_error _ -> ())
                  (Http.all_fds h)
            | None -> ());
            (* the worker must not inherit the access-log channel:
               its buffered bytes belong to the daemon alone *)
            Telemetry.close st.st_tele;
            List.iter
              (fun c ->
                try Unix.close c.c_fd with Unix.Unix_error _ -> ())
              st.st_conns);
      if dc.d_restarts > 0 then
        Metrics.set_gauge "srv.restarts" dc.d_restarts;
      Telemetry.event st.st_tele ~now:(Unix.gettimeofday ()) "start"
        ([
           ("pid", Json.Num (float_of_int (Unix.getpid ())));
           ("socket", Json.Str dc.d_socket);
           ("restarts", Json.Num (float_of_int dc.d_restarts));
           ("store", Json.Str store);
           ("recovered", Json.Num (float_of_int st.st_recovered));
         ]
        @
        match st.st_http with
        | Some h -> [ ("http_port", Json.Num (float_of_int (Http.port h))) ]
        | None -> []);
      log st "listening on %s (%d worker(s), queue depth %d%s%s)" dc.d_socket
        (Pool.size st.st_pool) dc.d_queue_depth
        (if st.st_recovered > 0 then
           Printf.sprintf ", %d summaries in %s" st.st_recovered store
         else "")
        (match st.st_http with
        | Some h -> Printf.sprintf ", http 127.0.0.1:%d" (Http.port h)
        | None -> "");
      let rec loop () =
        let now = Unix.gettimeofday () in
        if !hup_pending then begin
          hup_pending := false;
          reload st
        end;
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
            (* the http listener stays select-able through the drain so
               /readyz can tell the load balancer 503 until exit *)
            let rfds =
              (match st.st_listen with Some fd -> [ fd ] | None -> [])
              @ (match st.st_http with Some h -> Http.fds h | None -> [])
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
                (match st.st_http with
                | Some h -> Http.handle_ready h ~ready (http_handle st)
                | None -> ());
                (match st.st_listen with
                | Some fd when List.mem fd ready -> (
                    match Unix.accept fd with
                    | exception Unix.Unix_error _ -> ()
                    | cfd, _ ->
                        st.st_conns <-
                          { c_fd = cfd; c_buf = Buffer.create 256;
                            c_alive = true; c_queue = Queue.create () }
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
      (match st.st_http with Some h -> Http.close h | None -> ());
      Telemetry.event st.st_tele ~now:(Unix.gettimeofday ()) "exit"
        [
          ("served", Json.Num (float_of_int st.st_served));
          ("shed", Json.Num (float_of_int st.st_shed));
          ("errors", Json.Num (float_of_int st.st_errors));
        ];
      Telemetry.close st.st_tele;
      log st "exited cleanly (%d served, %d shed, %d errors)" st.st_served
        st.st_shed st.st_errors;
      0)
