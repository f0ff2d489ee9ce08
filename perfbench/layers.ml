(* The traced per-layer pass: calls each layer's public functions on a
   workload's inputs, one span per call, and turns spans plus the
   analyzer's own metrics registry into the per-layer table.

   Steps, each over all inputs, in this order:
     request     Linker.parse_and_link, Typecheck.elab_program,
                 Simplify.run, Fingerprint.make, then Analysis.analyze at
                 -j 1 without a cache (domain timers on); before it the
                 same steps run untraced, traced, traced and untraced,
                 for the tracing overhead
     incremental Analysis.analyze cold, then warm, over a fresh store
     server      Client.analyze_request, Service.serve in-process,
                 Client.roundtrip to a live daemon (cold, then resident),
                 Client.decode
     parallel    Scheduler.analyze at jobs=2 with the default backend
   The parallel step runs last: with the default backend it spawns OCaml
   domains, after which this process may not fork.

   Every step's result fingerprint must equal the -j 1 one; a mismatch
   counts the input as failed. *)

module C = Astree_core
module F = Astree_frontend
module P = Astree_parallel
module I = Astree_incremental
module Srv = Astree_server
module Metrics = Astree_obs.Metrics

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* the registry's domain probes, by the names of the per-layer table *)
let domain_probes =
  [
    ("oct_close_full", "oct.close.full");
    ("oct_close_incr", "oct.close.incr");
    ("oct_join", "oct.join");
    ("oct_widen", "oct.widen");
    ("env_join", "env.join");
    ("itv_transfer", "itv.transfer");
    ("widen", "widen.total");
  ]

let counter name = Metrics.value (Metrics.counter name)
let timer name = Metrics.timer_value (Metrics.timer name)

let lines_of src =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) src;
  !n

let dir_mb dir =
  if not (Sys.file_exists dir) then 0.
  else
    Array.fold_left
      (fun acc f ->
        acc +. float_of_int (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0. (Sys.readdir dir)
    /. 1048576.

(* per-layer totals over the pass's inputs *)
let add a k v = Hashtbl.replace a k (v +. Option.value ~default:0. (Hashtbl.find_opt a k))
let get a k = Option.value ~default:0. (Hashtbl.find_opt a k)

let compile_steps ~rid sources =
  let ast =
    Spans.within ~rid "frontend.parse" (fun () ->
        F.Linker.parse_and_link sources)
  in
  let p0 =
    Spans.within ~rid "frontend.typecheck" (fun () ->
        F.Typecheck.elab_program ~main:"main" ast)
  in
  fst (Spans.within ~rid "frontend.simplify" (fun () -> F.Simplify.run p0))

(* frontend + fingerprint + analysis, the part both passes share *)
let core_steps ~rid cfg sources =
  let p = compile_steps ~rid sources in
  ignore
    (Spans.within ~rid "incremental.fingerprint" (fun () ->
         I.Fingerprint.make cfg p));
  let r = Spans.within ~rid "core.analyze" (fun () -> C.Analysis.analyze ~cfg p) in
  (p, r)

let run ~dir ~socket ~files ~spans_out =
  I.Summary.register ();
  let options = Srv.Service.default_options in
  let inputs =
    List.map
      (fun f ->
        let sources = [ (f, read_file (Filename.concat dir f)) ] in
        (f, sources, Srv.Service.config_of options ~sources))
      files
  in
  (* tracing overhead: the shared steps untraced, traced, traced,
     untraced, so that heap growth in the first pass and the machine's
     drift weigh on both sides alike *)
  let pass traced =
    Spans.enabled := traced;
    Metrics.timing := traced;
    let t0 = Unix.gettimeofday () in
    List.iteri (fun rid (_, sources, cfg) -> ignore (core_steps ~rid cfg sources)) inputs;
    Unix.gettimeofday () -. t0
  in
  let passes = List.map pass [ false; true; true; false ] in
  let untraced = List.nth passes 0 +. List.nth passes 3
  and traced = List.nth passes 1 +. List.nth passes 2 in
  Spans.reset ();
  Spans.enabled := true;
  Metrics.timing := true;
  Metrics.reset ();
  let a = Hashtbl.create 64 in
  let failed = Hashtbl.create 8 in
  let fail f why =
    if not (Hashtbl.mem failed f) then begin
      Hashtbl.replace failed f ();
      Printf.eprintf "layers: %s: %s\n%!" f why
    end
  in
  let analyzed =
    List.mapi
      (fun rid (f, sources, cfg) ->
        let p, r =
          Spans.within ~rid "request" (fun () -> core_steps ~rid cfg sources)
        in
        add a "frontend.lines" (float_of_int (lines_of (snd (List.hd sources))));
        add a "frontend.stmts" (float_of_int (F.Tast.program_size p));
        let s = r.C.Analysis.r_stats in
        add a "core.cells" (float_of_int s.C.Analysis.s_cells);
        add a "core.oct_packs" (float_of_int s.C.Analysis.s_oct_packs);
        add a "core.oct_useful" (float_of_int s.C.Analysis.s_oct_useful);
        add a "core.alarms" (float_of_int (C.Analysis.n_alarms r));
        (f, sources, cfg, p, P.Merge.fingerprint r))
      inputs
  in
  (* the registry now holds exactly the -j 1 analyses of the traced
     pass: read the iterator and domain counters before anything else
     runs an analysis *)
  add a "core.loops" (float_of_int (counter "iter.loops"));
  add a "core.calls_inlined" (float_of_int (counter "iter.calls_inlined"));
  add a "core.widen_threshold_hits"
    (float_of_int (counter "widen.threshold_hits"));
  List.iter
    (fun (short, key) ->
      add a ("domains." ^ short) (float_of_int (counter key));
      add a ("domains." ^ short ^ "_s") (timer (key ^ ".time")))
    domain_probes;
  add a "domains.oct_close_skip" (float_of_int (counter "oct.close.skip"));
  (* incremental: a cold then a warm analysis over a fresh store *)
  let store = Filename.concat dir "layer-store" in
  let hits = ref 0 and misses = ref 0 in
  List.iteri
    (fun rid (f, _, cfg, p, fp) ->
      let cfg = { cfg with C.Config.summary_cache = C.Config.Cache_dir store } in
      List.iter
        (fun name ->
          let r = Spans.within ~rid name (fun () -> C.Analysis.analyze ~cfg p) in
          if P.Merge.fingerprint r <> fp then fail f (name ^ " fingerprint differs");
          match r.C.Analysis.r_stats.C.Analysis.s_cache with
          | None -> fail f (name ^ " ran without a cache")
          | Some c ->
              hits := !hits + c.C.Analysis.c_hits;
              misses := !misses + c.C.Analysis.c_misses;
              add a "incremental.store_load_s" c.C.Analysis.c_load_time;
              add a "incremental.store_save_s" c.C.Analysis.c_save_time)
        [ "incremental.cold"; "incremental.warm" ])
    analyzed;
  add a "incremental.hits" (float_of_int !hits);
  add a "incremental.misses" (float_of_int !misses);
  add a "incremental.store_mb" (dir_mb store);
  (* server: the codec and the worker job in-process, then the wire *)
  let fd =
    match Srv.Client.try_connect socket with
    | Some fd -> fd
    | None -> failwith ("no daemon on " ^ socket)
  in
  let rids = ref [] in
  List.iteri
    (fun rid (f, sources, _, _, fp) ->
      let rid_s k = Printf.sprintf "pb%03d%c" rid k in
      let encode k =
        Spans.within ~rid "server.encode" (fun () ->
            Srv.Client.analyze_request ~rid:(rid_s k) ~sources ~main:"main"
              ~options ())
      in
      let work =
        {
          Srv.Service.w_sources = sources;
          w_main = "main";
          w_options = options;
          w_preload = [];
          w_strip_cache = false;
        }
      in
      (match Spans.within ~rid "server.serve" (fun () -> Srv.Service.serve work) with
      | Srv.Service.Served sv when sv.Srv.Service.sv_fingerprint = fp -> ()
      | Srv.Service.Served _ -> fail f "Service.serve fingerprint differs"
      | Srv.Service.Refused m -> fail f ("Service.serve refused: " ^ m));
      (* twice: a cold request, then one the resident tables serve *)
      List.iter
        (fun k ->
          let line = encode k in
          let t0 = Unix.gettimeofday () in
          match
            Spans.within ~rid "server.roundtrip" (fun () -> Srv.Client.roundtrip fd line)
          with
          | Error e -> fail f ("roundtrip: " ^ e)
          | Ok reply ->
              rids := (rid_s k, Unix.gettimeofday () -. t0) :: !rids;
              let rep = Spans.within ~rid "server.decode" (fun () -> Srv.Client.decode reply) in
              let got =
                Option.bind rep.Srv.Client.r_report (fun report ->
                    match Srv.Json.parse report with
                    | Ok j -> Srv.Json.to_str (Srv.Json.member "fingerprint" j)
                    | Error _ -> None)
              in
              if rep.Srv.Client.r_status <> "ok" || got <> Some fp then
                fail f ("daemon reply " ^ rep.Srv.Client.r_status))
        [ 'a'; 'b' ])
    analyzed;
  Srv.Client.close fd;
  (* parallel, last: see the header comment *)
  let par0 name = counter name in
  let jobs0 = par0 "par.jobs_dispatched"
  and deltas0 = par0 "par.deltas_applied"
  and steals0 = par0 "par.steals" in
  List.iteri
    (fun rid (f, _, cfg, p, fp) ->
      let cfg = { cfg with C.Config.jobs = 2 } in
      let r =
        Spans.within ~rid "parallel.analyze" (fun () ->
            P.Scheduler.analyze ~cfg p)
      in
      if P.Merge.fingerprint r <> fp then fail f "-j 2 fingerprint differs")
    analyzed;
  add a "parallel.jobs_dispatched" (float_of_int (counter "par.jobs_dispatched" - jobs0));
  add a "parallel.deltas_applied" (float_of_int (counter "par.deltas_applied" - deltas0));
  add a "parallel.steals" (float_of_int (counter "par.steals" - steals0));
  let spans = Spans.all () in
  let self = Spans.self_by_name spans in
  let self_of name = Option.value ~default:0. (List.assoc_opt name self) in
  List.iter
    (fun (m, span) -> add a m (self_of span))
    [
      ("frontend.parse_s", "frontend.parse");
      ("frontend.typecheck_s", "frontend.typecheck");
      ("frontend.simplify_s", "frontend.simplify");
      ("core.analyze_s", "core.analyze");
      ("incremental.fingerprint_s", "incremental.fingerprint");
      ("server.encode_s", "server.encode");
      ("server.decode_s", "server.decode");
      ("server.serve_s", "server.serve");
      ("server.roundtrip_s", "server.roundtrip");
      ("parallel.analyze_s", "parallel.analyze");
    ];
  let frontend_s =
    get a "frontend.parse_s" +. get a "frontend.typecheck_s"
    +. get a "frontend.simplify_s"
  in
  add a "frontend.lines_per_s" (get a "frontend.lines" /. frontend_s);
  (* oct_widen runs inside widen (the iterator's all-domain widening
     timer), so it is not subtracted twice *)
  let attributed =
    List.fold_left
      (fun acc k -> acc +. get a ("domains." ^ k ^ "_s"))
      0.
      [ "oct_close_full"; "oct_close_incr"; "oct_join"; "env_join"; "itv_transfer"; "widen" ]
  in
  add a "core.unattributed_s" (get a "core.analyze_s" -. attributed);
  add a "core.oct_useful_ratio"
    (get a "core.oct_useful" /. Float.max 1. (get a "core.oct_packs"));
  Hashtbl.remove a "core.oct_useful";
  add a "incremental.hit_ratio"
    (float_of_int !hits /. float_of_int (max 1 (!hits + !misses)));
  add a "incremental.warm_minus_off_s"
    (self_of "incremental.warm" -. get a "core.analyze_s");
  add a "parallel.overhead_s" (get a "parallel.analyze_s" -. get a "core.analyze_s");
  add a "trace.overhead_ratio" ((traced /. untraced) -. 1.);
  add a "bench.request_self_s" (self_of "request");
  let oc = open_out spans_out in
  output_string oc (Spans.to_jsonl spans);
  close_out oc;
  let metrics =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) a [] |> List.sort compare
  in
  (* one JSON object for run.py: metrics, failures, daemon request ids *)
  Printf.printf "{\"attempted\": %d, \"failed\": %d, \"metrics\": {%s}, \"rids\": {%s}}\n"
    (List.length inputs) (Hashtbl.length failed)
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.9g" k v) metrics))
    (String.concat ", "
       (List.rev_map (fun (r, t) -> Printf.sprintf "\"%s\": %.9g" r t) !rids))
