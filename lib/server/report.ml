(* The report record and its JSON and text renderings, shared by
   bin/astree.ml and the daemon workers.  See report.mli for the parity
   contract. *)

module C = Astree_core
module F = Astree_frontend

let json_escape = Json.escape
let json_str s = "\"" ^ json_escape s ^ "\""

type interference = {
  i_tasks : int;
  i_rounds : int;
  i_stabilized : bool;
  i_shared : int;
}

let json_alarm (a : C.Alarm.t) : string =
  let prov =
    match a.C.Alarm.a_prov with
    | None -> ""
    | Some p ->
        Printf.sprintf
          ", \"chain\": [%s], \"domain\": %s, \"operands\": {%s}"
          (String.concat ", " (List.map json_str p.C.Alarm.p_chain))
          (json_str p.C.Alarm.p_domain)
          (String.concat ", "
             (List.map
                (fun (e, v) -> json_str e ^ ": " ^ json_str v)
                p.C.Alarm.p_operands))
  in
  Printf.sprintf
    "{\"kind\": %s, \"file\": %s, \"line\": %d, \"col\": %d, \"message\": %s%s}"
    (json_str (C.Alarm.kind_to_string a.C.Alarm.a_kind))
    (json_str a.C.Alarm.a_loc.F.Loc.file)
    a.C.Alarm.a_loc.F.Loc.line a.C.Alarm.a_loc.F.Loc.col
    (json_str a.C.Alarm.a_msg) prov

let json_stats (s : C.Analysis.stats) : string =
  let base =
    Printf.sprintf
      "\"globals_before\": %d, \"globals_after\": %d, \"cells\": %d, \
       \"statements\": %d, \"octagon_packs\": %d, \"octagon_useful\": %d, \
       \"ellipsoid_packs\": %d, \"decision_tree_packs\": %d, \"time\": %.6f"
      s.C.Analysis.s_globals_before s.C.Analysis.s_globals_after
      s.C.Analysis.s_cells s.C.Analysis.s_stmts s.C.Analysis.s_oct_packs
      s.C.Analysis.s_oct_useful s.C.Analysis.s_ell_packs
      s.C.Analysis.s_dt_packs s.C.Analysis.s_time
  in
  let cache =
    match s.C.Analysis.s_cache with
    | None -> ""
    | Some c ->
        Printf.sprintf
          ", \"cache\": {\"hits\": %d, \"misses\": %d, \"entries\": %d, \
           \"loaded\": %d, \"load_time\": %.6f, \"save_time\": %.6f}"
          c.C.Analysis.c_hits c.C.Analysis.c_misses c.C.Analysis.c_entries
          c.C.Analysis.c_loaded c.C.Analysis.c_load_time
          c.C.Analysis.c_save_time
  in
  "{" ^ base ^ cache ^ "}"

let json_degraded (d : C.Analysis.degraded) : string =
  Printf.sprintf
    "{\"reason\": %s, \"level\": %d, \"shed_octagon_packs\": %d, \
     \"shed_ellipsoid_packs\": %d, \"shed_decision_tree_packs\": %d, \
     \"partitioning_disabled\": %b, \"widening_accelerated\": %b}"
    (json_str d.C.Analysis.dg_reason)
    d.C.Analysis.dg_level d.C.Analysis.dg_shed_oct_packs
    d.C.Analysis.dg_shed_ell_packs d.C.Analysis.dg_shed_dt_packs
    d.C.Analysis.dg_partitioning_disabled d.C.Analysis.dg_widening_accelerated

let json_interference (i : interference) : string =
  Printf.sprintf
    "{\"tasks\": %d, \"rounds\": %d, \"stabilized\": %b, \"shared_vars\": %d}"
    i.i_tasks i.i_rounds i.i_stabilized i.i_shared

let pp_interference ppf (i : interference) =
  Fmt.pf ppf "interference fixpoint: %d tasks, %d shared variables, %d rounds%s"
    i.i_tasks i.i_shared i.i_rounds
    (if i.i_stabilized then ""
     else " (round budget hit: everything-top fallback)")

(* exit codes: 0 clean, 1 alarms, 3 degraded-but-complete,
   130 interrupted (the usual 128+SIGINT convention) *)
let exit_code (r : C.Analysis.result) : int =
  match r.C.Analysis.r_stats.C.Analysis.s_degraded with
  | Some d when d.C.Analysis.dg_reason = "interrupted" -> 130
  | Some _ -> 3
  | None -> if C.Analysis.n_alarms r = 0 then 0 else 1

(* ---- the report record ------------------------------------------- *)

type t = {
  alarms : C.Alarm.t list;
  stats : C.Analysis.stats;
  useful_packs : int list;
  fingerprint : string;
  interference : interference option;
  exit : int;
}

(* bump whenever [t] or a type it holds changes, so that a record of
   another version never unmarshals as this one, and, like the summary
   store's magic, whenever the analyzer can report differently on the
   same sources and options *)
let version = "1"

let of_result ?interference (r : C.Analysis.result) : t =
  {
    alarms = r.C.Analysis.r_alarms;
    stats = r.C.Analysis.r_stats;
    useful_packs = C.Analysis.useful_octagon_packs r;
    fingerprint = Astree_parallel.Merge.fingerprint r;
    interference;
    exit = exit_code r;
  }

let strip_cache (t : t) : t =
  { t with stats = { t.stats with C.Analysis.s_cache = None } }

let to_json ?(metrics = false) (t : t) : string =
  let degraded =
    match t.stats.C.Analysis.s_degraded with
    | None -> ""
    | Some d -> Printf.sprintf ", \"degraded\": %s" (json_degraded d)
  in
  let interference =
    match t.interference with
    | None -> ""
    | Some i -> Printf.sprintf ", \"interference\": %s" (json_interference i)
  in
  let metrics_block =
    (* opt-in: the registry holds volatile counters (timings, per-run
       cache traffic), and the default JSON must stay byte-comparable
       across equivalent runs (warm vs. cold cache, -j1 vs. -j4) *)
    if metrics then
      Printf.sprintf ", \"metrics\": %s"
        (Astree_obs.Metrics.render_json ~timers:false ())
    else ""
  in
  Printf.sprintf
    "{\"alarms\": [%s], \"stats\": %s, \"octagon_useful_ids\": [%s], \
     \"fingerprint\": %s%s%s%s}"
    (String.concat ", " (List.map json_alarm t.alarms))
    (json_stats t.stats)
    (String.concat ", " (List.map string_of_int t.useful_packs))
    (json_str t.fingerprint) interference degraded metrics_block

let pp_text ~(explain : bool) ~(verbose : bool) ppf (t : t) : unit =
  (* cache counters are a --verbose detail of the text report: default
     output stays byte-identical to the cache-less analyzer (JSON
     always carries them) *)
  let t = if verbose then t else strip_cache t in
  Fmt.pf ppf "%a@." C.Analysis.pp_report (t.alarms, t.stats);
  Option.iter (Fmt.pf ppf "%a@." pp_interference) t.interference;
  if explain && t.alarms <> [] then begin
    Fmt.pf ppf "--- alarm provenance ---@.";
    List.iter (Fmt.pf ppf "%a@." C.Alarm.pp_explain) t.alarms
  end;
  if verbose then
    Fmt.pf ppf "useful octagon packs: %a@." Fmt.(list ~sep:comma int)
      t.useful_packs
