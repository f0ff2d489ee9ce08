(* Request semantics: options wire format, the shared flag-to-config
   mapping, the worker-resident table of served programs, and the
   per-request job run inside a pool worker.  See service.mli. *)

module C = Astree_core
module F = Astree_frontend

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
    o_max_dtree_bools = int_m "max_dtree_bools" d.o_max_dtree_bools;
    o_useful_packs = ints "useful_packs";
    o_jobs = int_m "jobs" d.o_jobs;
    o_timeout = num_m "timeout" d.o_timeout;
    o_max_mem = int_m "max_mem" d.o_max_mem;
    o_cache = cache;
  }

let config_of (o : options) ~(sources : (string * string) list) : C.Config.t =
  let summary_cache =
    match o.o_cache with
    | `Off | `Default -> C.Config.Cache_off
    | `Dir dir -> C.Config.Cache_dir dir
  in
  let cfg =
    {
      C.Config.default with
      (* jobs = 0 means "one worker per available core", resolved
         wherever the analysis actually runs (a daemon worker detects
         its own host) *)
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
        (match o.o_useful_packs with
        | [] -> None
        | ids -> Some ("cli", ids));
    }
  in
  (* honor "/* astree-partition: f g ... */" markers unless the user
     supplied an explicit partition list *)
  if o.o_partition <> [] then cfg
  else
    let marked =
      List.concat_map (fun (_, src) -> F.Preproc.partition_markers src) sources
      |> List.sort_uniq String.compare
    in
    if marked = [] then cfg
    else { cfg with C.Config.partitioned_functions = marked }

(* ---- compilation ------------------------------------------------- *)

exception Request_error of string

let source_digest ~(main : string) (sources : (string * string) list) : string
    =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (main :: List.concat_map (fun (n, c) -> [ n; c ]) sources)))

let compile ~(main : string) (sources : (string * string) list) :
    F.Tast.program =
  try fst (C.Analysis.compile ~main sources) with
  | F.Lexer.Error (m, l) | F.Parser.Error (m, l) | F.Typecheck.Error (m, l) ->
      raise (Request_error (Fmt.str "%a: %s" F.Loc.pp l m))
  | F.Preproc.Error (m, l) ->
      raise (Request_error (Fmt.str "%a: preprocessor: %s" F.Loc.pp l m))
  | C.Iterator.Analysis_error m -> raise (Request_error m)

(* The programs a worker has served, by source digest: workers are
   long-lived, so a repeated request skips the frontend, and from a
   program's second request on also what its analysis prepares
   ([Transfer.prepared]).  A program served once keeps only its typed
   IR: one-off edited copies do not make a worker's memory grow. *)
type program = {
  pg_prog : F.Tast.program;
  mutable pg_prepared : C.Transfer.prepared option;
}

let programs : (string, program) Hashtbl.t = Hashtbl.create 8
let programs_max = 32

let program ~(main : string) (sources : (string * string) list)
    (cfg : C.Config.t) : F.Tast.program * C.Transfer.prepared option =
  let key = source_digest ~main sources in
  match Hashtbl.find_opt programs key with
  | Some pg ->
      let pr =
        C.Transfer.prepared_for ?prepared:pg.pg_prepared cfg pg.pg_prog
      in
      pg.pg_prepared <- Some pr;
      (pg.pg_prog, Some pr)
  | None ->
      let p = compile ~main sources in
      if Hashtbl.length programs >= programs_max then Hashtbl.reset programs;
      Hashtbl.add programs key { pg_prog = p; pg_prepared = None };
      (p, None)

let prepared ~(main : string) (sources : (string * string) list) :
    C.Transfer.prepared option =
  Option.bind
    (Hashtbl.find_opt programs (source_digest ~main sources))
    (fun pg -> pg.pg_prepared)

let prepared_count () : int =
  Hashtbl.fold
    (fun _ pg n -> if Option.is_some pg.pg_prepared then n + 1 else n)
    programs 0

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
  try
    (* the interference fixpoint drives whole analyses as sub-runs and
       owns its own pool: it does not fit the daemon's one-request =
       one-analysis worker model.  Refuse cleanly instead of failing
       worker-side partway through. *)
    (match
       List.concat_map
         (fun (_, src) -> F.Preproc.task_markers src)
         w.w_sources
     with
    | [] | [ _ ] -> ()
    | t ->
        raise
          (Request_error
             (Fmt.str
                "multi-task program (astree-task markers: %s): not \
                 supported by the analysis server; run astree without \
                 --connect"
                (String.concat " " t))));
    let cfg = config_of w.w_options ~sources:w.w_sources in
    let p, prepared = program ~main:w.w_main w.w_sources cfg in
    if C.Config.cache_enabled cfg then Astree_incremental.Summary.register ();
    let r = Astree_robust.Degrade.analyze ?prepared ~cfg p in
    let loaded =
      Option.fold ~none:0
        ~some:(fun c -> c.C.Analysis.c_loaded)
        r.C.Analysis.r_stats.C.Analysis.s_cache
    in
    let r = if w.w_strip_cache then Report.strip_cache r else r in
    let fingerprint = Astree_parallel.Merge.fingerprint r in
    Served
      {
        sv_report = Report.render ~fingerprint r;
        sv_exit = Report.exit_code r;
        sv_alarms = C.Analysis.n_alarms r;
        sv_fingerprint = fingerprint;
        sv_degraded =
          Option.is_some r.C.Analysis.r_stats.C.Analysis.s_degraded;
        sv_loaded = loaded;
        sv_time = Unix.gettimeofday () -. t0;
      }
  with Request_error msg | Sys_error msg -> Refused msg
