(* Operational telemetry for the analysis daemon.  See telemetry.mli.

   Everything here is owned by the daemon's single-threaded event loop,
   so no locking: request records arrive from the loop, feed the
   per-verb latency accounting and are appended to the access log in
   one call.  The daemon is the file's only writer, so rotation needs
   no coordination with another process. *)

module Metrics = Astree_obs.Metrics

(* ---- request ids -------------------------------------------------- *)

(* Process-unique prefix (pid + wall clock hashed) plus a counter:
   unique within a process by the counter, across concurrent clients
   and daemon restarts by the prefix.  Lazy so forked children that
   never mint ids pay nothing. *)
let id_seed =
  lazy (Hashtbl.hash (Unix.getpid (), Unix.gettimeofday ()) land 0xffffff)

let id_counter = ref 0

let gen_id () =
  Stdlib.incr id_counter;
  Printf.sprintf "r%06x-%06x" (Lazy.force id_seed) (!id_counter land 0xffffff)

(* ---- outcomes ----------------------------------------------------- *)

type outcome =
  [ `Ok | `Error | `Shed | `Dedup | `Shutting_down | `Timeout ]

let outcome_string : outcome -> string = function
  | `Ok -> "ok"
  | `Error -> "error"
  | `Shed -> "shed"
  | `Dedup -> "dedup"
  | `Shutting_down -> "shutting_down"
  | `Timeout -> "timeout"

type record = {
  rc_rid : string;
  rc_verb : string;
  rc_digest : string;          (* "" when the verb has no program *)
  rc_outcome : outcome;
  rc_queue_s : float;
  rc_service_s : float;
  rc_cache_hits : int;
}

(* ---- per-verb latency accounting ---------------------------------- *)

(* Fixed log-spaced bucket bounds in seconds (Prometheus [le] values).
   The per-verb ring of raw end-to-end latencies backs the p50/p90/p99
   quantiles — "rolling" means over the last [ring_size] requests. *)
let bounds =
  [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.;
     10.; 30.; 60. |]

let bound_labels =
  [| "0.001"; "0.0025"; "0.005"; "0.01"; "0.025"; "0.05"; "0.1"; "0.25";
     "0.5"; "1"; "2.5"; "5"; "10"; "30"; "60" |]

let ring_size = 512

type vstat = {
  v_counts : int array;        (* per-bound counts; last slot is +Inf *)
  mutable v_sum : float;
  mutable v_count : int;
  v_ring : float array;
  mutable v_ring_n : int;
}

type t = {
  tl_path : string option;
  tl_max : int;
  mutable tl_oc : out_channel option;
  mutable tl_bytes : int;
  tl_verbs : (string, vstat) Hashtbl.t;
  tl_outcomes : (string * string, int ref) Hashtbl.t; (* (verb, outcome) *)
  tl_started : float;
}

let create ?access_log ?(max_log_bytes = 8 * 1024 * 1024) ~now () : t =
  let bytes =
    match access_log with
    | Some path when Sys.file_exists path ->
        (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0)
    | _ -> 0
  in
  {
    tl_path = access_log;
    tl_max = max 4096 max_log_bytes;
    tl_oc = None;
    tl_bytes = bytes;
    tl_verbs = Hashtbl.create 8;
    tl_outcomes = Hashtbl.create 16;
    tl_started = now;
  }

let started t = t.tl_started

let vstat_of t verb =
  match Hashtbl.find_opt t.tl_verbs verb with
  | Some v -> v
  | None ->
      let v =
        {
          v_counts = Array.make (Array.length bounds + 1) 0;
          v_sum = 0.;
          v_count = 0;
          v_ring = Array.make ring_size 0.;
          v_ring_n = 0;
        }
      in
      Hashtbl.add t.tl_verbs verb v;
      v

(* ---- access log --------------------------------------------------- *)

(* Size-capped rotation: when the next line would push the file past
   the cap, close, atomically rename to [path.1] (clobbering the
   previous generation) and start fresh.  Readers see either the old
   file complete at [.1] or the new file — never a truncated half. *)
let write_line t (line : string) : unit =
  match t.tl_path with
  | None -> ()
  | Some path ->
      let len = String.length line + 1 in
      if t.tl_bytes > 0 && t.tl_bytes + len > t.tl_max then begin
        (match t.tl_oc with Some oc -> close_out_noerr oc | None -> ());
        t.tl_oc <- None;
        (try Sys.rename path (path ^ ".1") with Sys_error _ -> ());
        t.tl_bytes <- 0
      end;
      match
        match t.tl_oc with
        | Some oc -> oc
        | None ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
            t.tl_oc <- Some oc;
            oc
      with
      | exception Sys_error _ -> ()   (* unwritable log never kills serving *)
      | oc ->
          output_string oc line;
          output_char oc '\n';
          Stdlib.flush oc;
          t.tl_bytes <- t.tl_bytes + len

let close t =
  (match t.tl_oc with Some oc -> close_out_noerr oc | None -> ());
  t.tl_oc <- None

let record_json ~now (r : record) : string =
  Json.to_string
    (Json.Obj
       [
         ("t", Json.Num now);
         ("event", Json.Str "request");
         ("rid", Json.Str r.rc_rid);
         ("verb", Json.Str r.rc_verb);
         ("digest", Json.Str r.rc_digest);
         ("outcome", Json.Str (outcome_string r.rc_outcome));
         ("queue_s", Json.Num r.rc_queue_s);
         ("service_s", Json.Num r.rc_service_s);
         ("cache_hits", Json.Num (float_of_int r.rc_cache_hits));
       ])

let observe t ~now (r : record) : unit =
  let v = vstat_of t r.rc_verb in
  let lat = Float.max 0. (r.rc_queue_s +. r.rc_service_s) in
  let i =
    let rec go i =
      if i >= Array.length bounds then i
      else if lat <= bounds.(i) then i
      else go (i + 1)
    in
    go 0
  in
  v.v_counts.(i) <- v.v_counts.(i) + 1;
  v.v_sum <- v.v_sum +. lat;
  v.v_count <- v.v_count + 1;
  v.v_ring.(v.v_ring_n mod ring_size) <- lat;
  v.v_ring_n <- v.v_ring_n + 1;
  let key = (r.rc_verb, outcome_string r.rc_outcome) in
  (match Hashtbl.find_opt t.tl_outcomes key with
  | Some n -> Stdlib.incr n
  | None -> Hashtbl.add t.tl_outcomes key (ref 1));
  write_line t (record_json ~now r)

let event t ~now (kind : string) (fields : (string * Json.t) list) : unit =
  write_line t
    (Json.to_string
       (Json.Obj (("t", Json.Num now) :: ("event", Json.Str kind) :: fields)))

(* ---- quantiles ---------------------------------------------------- *)

let quantile t ~(verb : string) (q : float) : float option =
  match Hashtbl.find_opt t.tl_verbs verb with
  | None -> None
  | Some v ->
      let n = min v.v_ring_n ring_size in
      if n = 0 then None
      else begin
        let a = Array.sub v.v_ring 0 n in
        Array.sort compare a;
        let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
        Some a.(max 0 (min (n - 1) i))
      end

let quantiles_json t : string =
  let verbs =
    Hashtbl.fold (fun verb v acc -> (verb, v) :: acc) t.tl_verbs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  "{"
  ^ String.concat ", "
      (List.map
         (fun (verb, v) ->
           let q p =
             match quantile t ~verb p with Some x -> x | None -> 0.
           in
           Printf.sprintf
             "\"%s\": {\"p50\": %.6f, \"p90\": %.6f, \"p99\": %.6f, \
              \"count\": %d}"
             (Json.escape verb) (q 0.5) (q 0.9) (q 0.99) v.v_count)
         verbs)
  ^ "}"

(* ---- Prometheus text exposition ----------------------------------- *)

(* The daemon's own families (request latency, outcome counts, up and
   uptime), merged with the registry's by [Metrics.render_prometheus]. *)
let render_prometheus t ~now (ms : Metrics.snapshot) : string =
  let families = ref [] in
  let family name typ lines =
    families := Metrics.prom_family name typ lines :: !families
  in
  (* per-verb request latency: a histogram family over fixed bounds and
     a summary family carrying the rolling p50/p90/p99 *)
  let verbs =
    Hashtbl.fold (fun verb v acc -> (verb, v) :: acc) t.tl_verbs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  if verbs <> [] then begin
    let hist_lines =
      List.concat_map
        (fun (verb, v) ->
          let lv = Metrics.prom_label verb in
          let cum = ref 0 in
          let buckets =
            List.init (Array.length bounds) (fun i ->
                cum := !cum + v.v_counts.(i);
                Printf.sprintf
                  "astreed_request_duration_seconds_bucket{le=\"%s\",\
                   verb=\"%s\"} %d"
                  bound_labels.(i) lv !cum)
          in
          buckets
          @ [
              Printf.sprintf
                "astreed_request_duration_seconds_bucket{le=\"+Inf\",\
                 verb=\"%s\"} %d"
                lv v.v_count;
              Printf.sprintf
                "astreed_request_duration_seconds_sum{verb=\"%s\"} %s" lv
                (Metrics.prom_float v.v_sum);
              Printf.sprintf
                "astreed_request_duration_seconds_count{verb=\"%s\"} %d" lv
                v.v_count;
            ])
        verbs
    in
    family "astreed_request_duration_seconds" "histogram" hist_lines;
    let sum_lines =
      List.concat_map
        (fun (verb, v) ->
          let lv = Metrics.prom_label verb in
          let q p =
            match quantile t ~verb p with Some x -> x | None -> 0.
          in
          [
            Printf.sprintf
              "astreed_request_latency_seconds{quantile=\"0.5\",\
               verb=\"%s\"} %s"
              lv (Metrics.prom_float (q 0.5));
            Printf.sprintf
              "astreed_request_latency_seconds{quantile=\"0.9\",\
               verb=\"%s\"} %s"
              lv (Metrics.prom_float (q 0.9));
            Printf.sprintf
              "astreed_request_latency_seconds{quantile=\"0.99\",\
               verb=\"%s\"} %s"
              lv (Metrics.prom_float (q 0.99));
            Printf.sprintf "astreed_request_latency_seconds_sum{verb=\"%s\"} %s"
              lv (Metrics.prom_float v.v_sum);
            Printf.sprintf
              "astreed_request_latency_seconds_count{verb=\"%s\"} %d" lv
              v.v_count;
          ])
        verbs
    in
    family "astreed_request_latency_seconds" "summary" sum_lines
  end;
  (* per-(verb, outcome) request counts *)
  let outcomes =
    Hashtbl.fold (fun (verb, oc) n acc -> (verb, oc, !n) :: acc) t.tl_outcomes []
    |> List.sort compare
  in
  if outcomes <> [] then
    family "astreed_requests_total" "counter"
      (List.map
         (fun (verb, oc, n) ->
           Printf.sprintf "astreed_requests_total{outcome=\"%s\",verb=\"%s\"} %d"
             (Metrics.prom_label oc) (Metrics.prom_label verb) n)
         outcomes);
  family "astreed_up" "gauge" [ "astreed_up 1" ];
  family "astreed_uptime_seconds" "gauge"
    [
      Printf.sprintf "astreed_uptime_seconds %s"
        (Metrics.prom_float (Float.max 0. (now -. t.tl_started)));
    ];
  Metrics.render_prometheus ~families:!families ms
