(* The analyzer command-line interface.

   Usage:  astree [options] file.c [more-files.c ...]

   Exposes the end-user parameters of Sect. 7: domain selection, widening
   thresholds, unrolling factors, trace-partitioned functions, decision-
   tree pack bounds, and the useful-octagon-pack reuse of Sect. 7.2.2.

   With --connect SOCK the analysis is delegated to a running astreed
   daemon, whose workers keep a table of prepared programs and whose
   summary store outlives requests; the reply carries the same JSON
   report bytes this binary would print in-process, and when no daemon
   answers the analysis runs in-process instead. *)

module C = Astree_core
module F = Astree_frontend
module S = Astree_slicer
module Srv = Astree_server
module Conc = Astree_conc
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* JSON rendering is shared with the daemon workers (Astree_server.Report)
   so client-mode and in-process output are byte-identical *)
let print_json ?metrics ?interference (r : C.Analysis.result) : unit =
  print_string (Srv.Report.render ?metrics ?interference r ^ "\n")

let run files main tasks_opt no_oct no_ell no_dt no_clock no_lin no_thresholds
    unroll partitioned max_dt_bools useful_packs jobs cache_dir no_cache
    timeout max_mem connect format
    dump_invariants dump_census slice_alarms profile trace_file metrics_file
    explain verbose =
  if files = [] then `Error (false, "no input files")
  else
    try
      (* the trace sink is opened before any analysis work so frontend
         phase spans land in the file too; [Trace.close] at the end
         flushes whatever the ring still holds *)
      (match trace_file with
      | None -> ()
      | Some f ->
          Astree_obs.Trace.enabled := true;
          Astree_obs.Trace.set_sink (open_out f));
      if metrics_file <> None || profile then
        Astree_obs.Metrics.timing := true;
      (* a SIGINT/SIGTERM mid-analysis tears down the worker pool,
         flushes the summary cache and prints the partial result *)
      Astree_robust.Budget.install_signal_handlers ();
      let jobs =
        if jobs = 0 then Astree_parallel.Scheduler.default_jobs ()
        else max 1 jobs
      in
      let options =
        {
          Srv.Service.o_no_oct = no_oct;
          o_no_ell = no_ell;
          o_no_dt = no_dt;
          o_no_clock = no_clock;
          o_no_lin = no_lin;
          o_no_thresholds = no_thresholds;
          o_unroll = unroll;
          o_partition = partitioned;
          o_max_dtree_bools = max_dt_bools;
          o_useful_packs = useful_packs;
          o_jobs = jobs;
          o_timeout = (if timeout > 0. then timeout else 0.);
          o_max_mem = max 0 max_mem;
          o_cache =
            (if no_cache then `Off
             else
               match cache_dir with Some dir -> `Dir dir | None -> `Default);
        }
      in
      let sources = List.map (fun f -> (f, read_file f)) files in
      (* task entry points: --tasks wins; otherwise the astree-task
         markers of the sources, in document order (first occurrence) *)
      let tasks =
        if tasks_opt <> [] then tasks_opt
        else
          let seen = Hashtbl.create 8 in
          List.concat_map (fun (_, src) -> F.Preproc.task_markers src) sources
          |> List.filter (fun t ->
                 if Hashtbl.mem seen t then false
                 else begin
                   Hashtbl.replace seen t ();
                   true
                 end)
      in
      let multi_task = List.compare_length_with tasks 1 > 0 in
      let in_process () =
        let cfg = Srv.Service.config_of options ~sources in
        if C.Config.cache_enabled cfg then Astree_incremental.Summary.register ();
        let p, _stats = C.Analysis.compile ~main sources in
        let r, interference =
          if multi_task then begin
            let cr = Conc.Fixpoint.analyze ~cfg ~tasks p in
            ( cr.Conc.Fixpoint.c_result,
              Some
                {
                  Srv.Report.i_tasks = List.length tasks;
                  i_rounds = cr.Conc.Fixpoint.c_rounds;
                  i_stabilized = cr.Conc.Fixpoint.c_stabilized;
                  i_shared = List.length cr.Conc.Fixpoint.c_shared;
                } )
          end
          else (Astree_robust.Degrade.analyze ~cfg p, None)
        in
        (match metrics_file with
        | None -> ()
        | Some f ->
            let oc = open_out f in
            output_string oc (Astree_obs.Metrics.render_json ());
            output_char oc '\n';
            close_out oc);
        (match format with
        | `Json -> print_json ~metrics:(metrics_file <> None) ?interference r
        | `Text ->
            (* cache counters are a --verbose detail of the text report:
               default output stays byte-identical to the cache-less
               analyzer (JSON always carries them) *)
            let r = if verbose then r else Srv.Report.strip_cache r in
            Fmt.pr "%a@." C.Analysis.pp_result r;
            (match interference with
            | None -> ()
            | Some i ->
                Fmt.pr
                  "interference fixpoint: %d tasks, %d shared variables, %d \
                   rounds%s@."
                  i.Srv.Report.i_tasks i.Srv.Report.i_shared
                  i.Srv.Report.i_rounds
                  (if i.Srv.Report.i_stabilized then ""
                   else " (round budget hit: everything-top fallback)"));
            if explain && r.C.Analysis.r_alarms <> [] then begin
              Fmt.pr "--- alarm provenance ---@.";
              List.iter
                (fun (al : C.Alarm.t) ->
                  Fmt.pr "%a@." C.Alarm.pp_explain al)
                r.C.Analysis.r_alarms
            end;
            if verbose then
              Fmt.pr "useful octagon packs: %a@."
                Fmt.(list ~sep:comma int)
                (C.Analysis.useful_octagon_packs r));
        if dump_census then begin
          match C.Invariant_census.main_loop_census r with
          | Some c ->
              Fmt.pr "--- main loop invariant census (Sect. 9.4.1) ---@.%a@."
                C.Invariant_census.pp c
          | None -> Fmt.pr "no loop invariant recorded@."
        end;
        if dump_invariants then
          print_string (C.Invariant_dump.to_string r);
        (* the registry's timers with their call counts, on stderr so
           the regular (text or JSON) output stays byte-identical *)
        if profile then prerr_string (Astree_obs.Metrics.render_profile ());
        if slice_alarms && r.C.Analysis.r_alarms <> [] then begin
          let g = S.Depgraph.build p in
          List.iter
            (fun (al : C.Alarm.t) ->
              Fmt.pr "--- slice for %a ---@." C.Alarm.pp al;
              let sl =
                S.Slicer.slice g
                  { S.Slicer.c_loc = al.C.Alarm.a_loc; c_vars = None }
              in
              Fmt.pr "%a@." S.Slicer.pp_slice sl)
            r.C.Analysis.r_alarms
        end;
        Astree_obs.Trace.close ();
        `Ok (Srv.Report.exit_code r)
      in
      let local_only =
        dump_invariants || dump_census || slice_alarms || profile
        || trace_file <> None || metrics_file <> None
      in
      (match connect with
      | Some _ when multi_task ->
          (* the daemon's one-request = one-analysis worker model does
             not fit the interference fixpoint; it would refuse anyway *)
          prerr_endline
            "astree: multi-task programs are analyzed in-process (the \
             daemon does not serve the interference fixpoint)";
          in_process ()
      | Some sock when format = `Json && not local_only -> (
          let req =
            Srv.Client.analyze_request_json ~sources ~main ~options ()
          in
          (* a daemon that resets the connection mid-write must not
             kill this process: the write fails and the fallback runs *)
          let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
          let res = Srv.Client.request sock req in
          Sys.set_signal Sys.sigpipe sigpipe;
          (* the echoed request id joins this invocation to the
             daemon's trace span and access-log line *)
          (match res with
          | Ok rep when verbose ->
              Option.iter
                (fun rid -> prerr_endline ("astree: daemon request " ^ rid))
                rep.Srv.Client.r_rid
          | _ -> ());
          match Srv.Client.verdict res with
          | Srv.Client.Print (report, code) ->
              print_string (report ^ "\n");
              `Ok code
          | Srv.Client.Refused status ->
              prerr_endline
                ("astree: daemon refused the request (" ^ status ^ ")");
              `Ok 4
          | Srv.Client.Fallback why ->
              (* no daemon answered (no listener, a stale socket file, a
                 reset or a torn reply), or it answered with an error: a
                 one-shot run gives the same report bytes and exit code,
                 and reports bad input as a one-shot run does *)
              prerr_endline ("astree: " ^ why ^ ", analyzing in-process");
              in_process ())
      | Some _ ->
          (* text output and the report extras need the result value in
             this process *)
          prerr_endline
            "astree: --connect only serves --format json without report \
             extras; analyzing in-process";
          in_process ()
      | None -> in_process ())
    with e -> (
      (* flush whatever the trace ring holds — a trace that stops at the
         failing phase is exactly what one wants for a post-mortem *)
      Astree_obs.Trace.close ();
      match e with
      | F.Lexer.Error (m, l) | F.Parser.Error (m, l)
      | F.Typecheck.Error (m, l) ->
          `Error (false, Fmt.str "%a: %s" F.Loc.pp l m)
      | F.Preproc.Error (m, l) ->
          `Error (false, Fmt.str "%a: preprocessor: %s" F.Loc.pp l m)
      | C.Iterator.Analysis_error m -> `Error (false, m)
      | Astree_robust.Budget.Tripped Astree_robust.Budget.Interrupted ->
          (* only the multi-task fixpoint lets a trip escape (a single
             analysis degrades to a partial result); its worker pool is
             already torn down by the time the trip reaches here *)
          prerr_endline
            "astree: interrupted; a multi-task analysis has no partial \
             result";
          `Ok 130
      | Sys_error msg -> `Error (false, msg)
      | e -> raise e)

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"C source files")

let main_arg =
  Arg.(value & opt string "main" & info [ "main" ] ~doc:"Entry-point function")

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let cmd =
  let doc = "abstract-interpretation analyzer for synchronous C programs" in
  Cmd.v
    (Cmd.info "astree" ~doc)
    Term.(
      ret
        (const run $ files_arg $ main_arg
        $ Arg.(value & opt (list string) [] & info [ "tasks" ] ~docv:"FN,..." ~doc:"Analyze as a multi-task program with these entry points (interference fixpoint); default: the $(b,astree-task) markers of the sources")
        $ flag "no-octagons" "Disable the octagon domain (Sect. 6.2.2)"
        $ flag "no-ellipsoids" "Disable the ellipsoid domain (Sect. 6.2.3)"
        $ flag "no-decision-trees" "Disable decision trees (Sect. 6.2.4)"
        $ flag "no-clock" "Disable the clocked domain (Sect. 6.2.1)"
        $ flag "no-linearization" "Disable symbolic linearization (Sect. 6.3)"
        $ flag "no-thresholds" "Classical widening, no thresholds (Sect. 7.1.2)"
        $ Arg.(value & opt int 1 & info [ "unroll" ] ~doc:"Loop unrolling factor (Sect. 7.1.1)")
        $ Arg.(value & opt (list string) [] & info [ "partition" ] ~doc:"Functions analyzed with trace partitioning (Sect. 7.1.5)")
        $ Arg.(value & opt int 3 & info [ "max-dtree-bools" ] ~doc:"Booleans per decision-tree pack (Sect. 7.2.3)")
        $ Arg.(value & opt (list int) [] & info [ "useful-packs" ] ~doc:"Octagon pack ids to keep (Sect. 7.2.2)")
        $ Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc:"Worker processes for the per-task runs of a multi-task program (0 = one per core); a single-task program is analyzed sequentially")
        $ Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc:"Persist function summaries in $(docv), reusing them across runs (results are unaffected)")
        $ flag "no-cache" "Disable the summary cache, overriding $(b,--cache)"
        $ Arg.(value & opt float 0. & info [ "timeout" ] ~docv:"SECS" ~doc:"Wall-clock budget for the analysis; on overrun, precision is shed soundly (degraded exit code 3) instead of aborting (0 = unbounded)")
        $ Arg.(value & opt int 0 & info [ "max-mem" ] ~docv:"MB" ~doc:"Major-heap watermark in MiB, with the same sound degradation as $(b,--timeout) (0 = unbounded)")
        $ Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"SOCK" ~doc:"Delegate the analysis to the astreed daemon listening on $(docv) (warm caches); a $(b,shutting_down) reply (the daemon is draining) exits 4; when no daemon answers (no listener, a reset or a torn reply) or it answers with an error (a worker crash, a request timeout, a refused request), the analysis runs in-process, with the one-shot report and exit code")
        $ Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text & info [ "format" ] ~doc:"Output format: $(b,text) or $(b,json) (one object with alarms, stats and the result fingerprint)")
        $ flag "dump-invariants" "Print loop invariants"
        $ flag "census" "Print the main-loop invariant census (Sect. 9.4.1)"
        $ flag "slice" "Print a backward slice for each alarm (Sect. 3.3)"
        $ flag "profile" "Print per-domain cumulative timings and counters on stderr at exit (merged across workers)"
        $ Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Write a structured event trace (one JSON object per line: phase spans, per-loop fixpoint records, call inlining, multi-task rounds, cache traffic, degradation) to $(docv)")
        $ Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc:"Write the unified metrics registry (counters, gauges, histograms, timers) as JSON to $(docv); with $(b,--format json) the registry is also embedded in the report")
        $ flag "explain" "After the report, print each alarm with its provenance: the inlining call chain, the abstract domain that raised it, and the abstract operand values"
        $ flag "verbose" "Print extra statistics"))

let () = exit (Cmd.eval' cmd)
