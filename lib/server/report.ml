(* JSON report rendering, shared by bin/astree.ml (--format json) and
   the daemon workers.  See report.mli for the parity contract. *)

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

let render ?(metrics = false) ?interference ?fingerprint
    (r : C.Analysis.result) : string =
  let degraded =
    match r.C.Analysis.r_stats.C.Analysis.s_degraded with
    | None -> ""
    | Some d -> Printf.sprintf ", \"degraded\": %s" (json_degraded d)
  in
  let interference =
    match interference with
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
    (String.concat ", " (List.map json_alarm r.C.Analysis.r_alarms))
    (json_stats r.C.Analysis.r_stats)
    (String.concat ", "
       (List.map string_of_int (C.Analysis.useful_octagon_packs r)))
    (json_str
       (match fingerprint with
       | Some fp -> fp
       | None -> Astree_parallel.Merge.fingerprint r))
    interference degraded metrics_block

let strip_cache (r : C.Analysis.result) : C.Analysis.result =
  {
    r with
    C.Analysis.r_stats =
      { r.C.Analysis.r_stats with C.Analysis.s_cache = None };
  }

(* exit codes: 0 clean, 1 alarms, 3 degraded-but-complete,
   130 interrupted (the usual 128+SIGINT convention) *)
let exit_code (r : C.Analysis.result) : int =
  match r.C.Analysis.r_stats.C.Analysis.s_degraded with
  | Some d when d.C.Analysis.dg_reason = "interrupted" -> 130
  | Some _ -> 3
  | None -> if C.Analysis.n_alarms r = 0 then 0 else 1
