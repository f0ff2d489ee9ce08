(* Request semantics: options wire format, the shared flag-to-config
   mapping, the one analysis entry of the CLI and the daemon with its
   report records, and the per-request job run inside a pool worker.
   See service.mli. *)

module C = Astree_core
module F = Astree_frontend
module Store = Astree_incremental.Store

(* ---- options ----------------------------------------------------- *)

type options = {
  o_no_oct : bool;
  o_no_ell : bool;
  o_no_dt : bool;
  o_no_clock : bool;
  o_no_lin : bool;
  o_no_thresholds : bool;
  o_unroll : int;
  o_partition : string list;
  o_tasks : string list;
  o_max_dtree_bools : int;
  o_useful_packs : int list;
  o_jobs : int;
  o_timeout : float;
  o_max_mem : int;
  o_cache : [ `Default | `Off | `Dir of string ];
}

let default_options : options =
  {
    o_no_oct = false;
    o_no_ell = false;
    o_no_dt = false;
    o_no_clock = false;
    o_no_lin = false;
    o_no_thresholds = false;
    o_unroll = 1;
    o_partition = [];
    o_tasks = [];
    o_max_dtree_bools = 3;
    o_useful_packs = [];
    o_jobs = 1;
    o_timeout = 0.;
    o_max_mem = 0;
    o_cache = `Default;
  }

let options_to_json (o : options) : Json.t =
  let d = default_options in
  let members = ref [] in
  let put k v = members := (k, v) :: !members in
  if o.o_no_oct <> d.o_no_oct then put "no_octagons" (Json.Bool o.o_no_oct);
  if o.o_no_ell <> d.o_no_ell then put "no_ellipsoids" (Json.Bool o.o_no_ell);
  if o.o_no_dt <> d.o_no_dt then put "no_decision_trees" (Json.Bool o.o_no_dt);
  if o.o_no_clock <> d.o_no_clock then put "no_clock" (Json.Bool o.o_no_clock);
  if o.o_no_lin <> d.o_no_lin then
    put "no_linearization" (Json.Bool o.o_no_lin);
  if o.o_no_thresholds <> d.o_no_thresholds then
    put "no_thresholds" (Json.Bool o.o_no_thresholds);
  if o.o_unroll <> d.o_unroll then put "unroll" (Json.Num (float_of_int o.o_unroll));
  if o.o_partition <> [] then
    put "partition" (Json.List (List.map (fun f -> Json.Str f) o.o_partition));
  if o.o_tasks <> [] then
    put "tasks" (Json.List (List.map (fun f -> Json.Str f) o.o_tasks));
  if o.o_max_dtree_bools <> d.o_max_dtree_bools then
    put "max_dtree_bools" (Json.Num (float_of_int o.o_max_dtree_bools));
  if o.o_useful_packs <> [] then
    put "useful_packs"
      (Json.List (List.map (fun i -> Json.Num (float_of_int i)) o.o_useful_packs));
  if o.o_jobs <> d.o_jobs then put "jobs" (Json.Num (float_of_int o.o_jobs));
  if o.o_timeout <> d.o_timeout then put "timeout" (Json.Num o.o_timeout);
  if o.o_max_mem <> d.o_max_mem then
    put "max_mem" (Json.Num (float_of_int o.o_max_mem));
  (match o.o_cache with
  | `Default -> ()
  | `Off -> put "cache" (Json.Str "off")
  | `Dir dir -> put "cache" (Json.Obj [ ("dir", Json.Str dir) ]));
  Json.Obj (List.rev !members)

let options_of_json (j : Json.t) : options =
  let d = default_options in
  let bool_m k dflt = Option.value ~default:dflt (Json.to_bool (Json.member k j)) in
  let int_m k dflt = Option.value ~default:dflt (Json.to_int (Json.member k j)) in
  let num_m k dflt = Option.value ~default:dflt (Json.to_num (Json.member k j)) in
  let strs k =
    match Json.to_list (Json.member k j) with
    | None -> []
    | Some l -> List.filter_map Json.to_str l
  in
  let ints k =
    match Json.to_list (Json.member k j) with
    | None -> []
    | Some l -> List.filter_map Json.to_int l
  in
  let cache =
    match Json.member "cache" j with
    | Json.Str "off" -> `Off
    | Json.Obj _ as o -> (
        match Json.to_str (Json.member "dir" o) with
        | Some dir -> `Dir dir
        | None -> `Default)
    | _ -> `Default
  in
  {
    o_no_oct = bool_m "no_octagons" d.o_no_oct;
    o_no_ell = bool_m "no_ellipsoids" d.o_no_ell;
    o_no_dt = bool_m "no_decision_trees" d.o_no_dt;
    o_no_clock = bool_m "no_clock" d.o_no_clock;
    o_no_lin = bool_m "no_linearization" d.o_no_lin;
    o_no_thresholds = bool_m "no_thresholds" d.o_no_thresholds;
    o_unroll = int_m "unroll" d.o_unroll;
    o_partition = strs "partition";
    o_tasks = strs "tasks";
    o_max_dtree_bools = int_m "max_dtree_bools" d.o_max_dtree_bools;
    o_useful_packs = ints "useful_packs";
    o_jobs = int_m "jobs" d.o_jobs;
    o_timeout = num_m "timeout" d.o_timeout;
    o_max_mem = int_m "max_mem" d.o_max_mem;
    o_cache = cache;
  }

(* The configuration the options name, before the sources' markers. *)
let base_config (o : options) : C.Config.t =
  let summary_cache =
    match o.o_cache with
    | `Off | `Default -> C.Config.Cache_off
    | `Dir dir -> C.Config.Cache_dir dir
  in
  {
    C.Config.default with
    (* jobs = 0 means "one worker per available core", resolved
       wherever the analysis actually runs (a daemon worker detects its
       own host) *)
    C.Config.jobs =
      (if o.o_jobs = 0 then Astree_parallel.Scheduler.default_jobs ()
       else max 1 o.o_jobs);
    summary_cache;
    timeout = (if o.o_timeout > 0. then o.o_timeout else 0.);
    max_mem_mb = max 0 o.o_max_mem;
    use_octagons = not o.o_no_oct;
    use_ellipsoids = not o.o_no_ell;
    use_decision_trees = not o.o_no_dt;
    use_clocked = not o.o_no_clock;
    use_linearization = not o.o_no_lin;
    widening_thresholds =
      (if o.o_no_thresholds then Astree_domains.Thresholds.none
       else Astree_domains.Thresholds.default);
    loop_unroll = o.o_unroll;
    partitioned_functions = o.o_partition;
    max_dtree_bools = o.o_max_dtree_bools;
    useful_packs_only =
      (match o.o_useful_packs with [] -> None | ids -> Some ("cli", ids));
  }

(* honor "/* astree-partition: f g ... */" markers unless the user
   supplied an explicit partition list *)
let with_markers (o : options) ~(sources : (string * string) list)
    (cfg : C.Config.t) : C.Config.t =
  if o.o_partition <> [] then cfg
  else
    let marked =
      List.concat_map (fun (_, src) -> F.Preproc.partition_markers src) sources
      |> List.sort_uniq String.compare
    in
    if marked = [] then cfg
    else { cfg with C.Config.partitioned_functions = marked }

let config_of (o : options) ~(sources : (string * string) list) : C.Config.t =
  with_markers o ~sources (base_config o)

(* the task entry points: the explicit list, else the sources'
   "/* astree-task: t u */" markers in document order, the first
   occurrence winning; two or more make the program multi-task *)
let tasks_of (o : options) ~(sources : (string * string) list) : string list =
  if o.o_tasks <> [] then o.o_tasks
  else
    List.concat_map (fun (_, src) -> F.Preproc.task_markers src) sources
    |> List.fold_left (fun acc t -> if List.mem t acc then acc else t :: acc) []
    |> List.rev

(* ---- one analysis ------------------------------------------------ *)

(* each source is digested in place: concatenating the sources first
   would copy them into one large block, which a one-shot run's peak
   heap pays for *)
let source_digest ~(main : string) (sources : (string * string) list) : string
    =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (main
          :: List.concat_map (fun (n, c) -> [ n; Digest.string c ]) sources)))

(* The key of a report record: everything the report is a function of.
   The configuration enters before the markers, which follow from the
   sources, so a hit scans nothing; jobs, budget and cache directory
   are result-neutral and [config_digest] leaves them out. *)
let record_key (o : options) (cfg : C.Config.t) ~(main : string)
    (sources : (string * string) list) : string =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( Report.version,
            Sys.ocaml_version,
            main,
            o.o_tasks,
            Astree_incremental.Fingerprint.config_digest cfg,
            List.map (fun (n, c) -> (n, Digest.string c)) sources )
          [ Marshal.No_sharing ]))

let c_cache_hits = Astree_obs.Metrics.counter "cache.hits"

(* The report recorded under [key], with the counters a fully warm
   summary-store run reports: one hit (the entry point), nothing
   computed or saved. *)
let recorded ~(dir : string) (key : string) : Report.t option =
  let t0 = Unix.gettimeofday () in
  Option.bind (Store.find_record ~dir ~version:Report.version key)
    (fun payload ->
      match (Marshal.from_string payload 0 : Report.t) with
      | exception (Failure _ | Invalid_argument _) ->
          prerr_endline
            ("astree: warning: report record " ^ key
           ^ ": does not unmarshal, ignored");
          None
      | rep ->
          Astree_obs.Metrics.incr c_cache_hits;
          let dt = Unix.gettimeofday () -. t0 in
          Some
            {
              rep with
              Report.stats =
                {
                  rep.Report.stats with
                  C.Analysis.s_time = dt;
                  s_cache =
                    Some
                      {
                        C.Analysis.c_hits = 1;
                        c_misses = 0;
                        c_entries = 0;
                        c_loaded = 1;
                        c_load_time = dt;
                        c_save_time = 0.;
                      };
                };
            })

type analyzed = {
  a_report : Report.t;
  a_run : (F.Tast.program * C.Analysis.result) option;
}

let run (o : options) (cfg : C.Config.t) ~(main : string)
    (sources : (string * string) list) : analyzed =
  let cfg = with_markers o ~sources cfg in
  let p = fst (C.Analysis.compile ~main sources) in
  match tasks_of o ~sources with
  | _ :: _ :: _ as tasks ->
      let { Astree_conc.Fixpoint.c_result = r; c_rounds; c_stabilized;
            c_shared; _ } =
        Astree_conc.Fixpoint.analyze ~cfg ~tasks p
      in
      let interference =
        {
          Report.i_tasks = List.length tasks;
          i_rounds = c_rounds;
          i_stabilized = c_stabilized;
          i_shared = List.length c_shared;
        }
      in
      { a_report = Report.of_result ~interference r; a_run = Some (p, r) }
  | _ ->
      let r = Astree_parallel.Scheduler.analyze ~cfg p in
      { a_report = Report.of_result r; a_run = Some (p, r) }

let analyze ?(reuse = true) (o : options) ~(main : string)
    (sources : (string * string) list) : analyzed =
  let cfg = base_config o in
  match cfg.C.Config.summary_cache with
  | C.Config.Cache_dir dir when reuse -> (
      let key = record_key o cfg ~main sources in
      match recorded ~dir key with
      | Some rep -> { a_report = rep; a_run = None }
      | None ->
          let a = run o cfg ~main sources in
          (* a degraded or interrupted report is not the program's *)
          if Option.is_none a.a_report.Report.stats.C.Analysis.s_degraded
          then
            Store.publish_record ~dir ~version:Report.version key
              (Marshal.to_string a.a_report []);
          a)
  | _ -> run o cfg ~main sources

(* ---- worker jobs ------------------------------------------------- *)

type never = |

type work = {
  w_sources : (string * string) list;
  w_main : string;
  w_options : options;
  w_preload : never list;
  w_strip_cache : bool;
}

type served = {
  sv_report : string;
  sv_exit : int;
  sv_alarms : int;
  sv_fingerprint : string;
  sv_degraded : bool;
  sv_loaded : int;
  sv_time : float;
}

type outcome = Served of served | Refused of string

let serve (w : work) : outcome =
  let t0 = Unix.gettimeofday () in
  (* one core per worker: the daemon's pool is its parallelism *)
  match analyze { w.w_options with o_jobs = 1 } ~main:w.w_main w.w_sources with
  | exception Sys_error msg -> Refused msg
  | exception e -> (
      match C.Analysis.diagnosis e with Some m -> Refused m | None -> raise e)
  | { a_report = rep; _ } ->
      let stats = rep.Report.stats in
      Served
        {
          sv_report =
            Report.to_json (if w.w_strip_cache then Report.strip_cache rep else rep);
          sv_exit = rep.Report.exit;
          sv_alarms = List.length rep.Report.alarms;
          sv_fingerprint = rep.Report.fingerprint;
          sv_degraded = Option.is_some stats.C.Analysis.s_degraded;
          sv_loaded =
            Option.fold ~none:0
              ~some:(fun c -> c.C.Analysis.c_loaded)
              stats.C.Analysis.s_cache;
          sv_time = Unix.gettimeofday () -. t0;
        }
