(** The summary-cache driver: keys, table, and the [Analysis.cache_driver]
    implementation.

    A summary is reused only for the exact key it was computed under —
    the callee's {!Fingerprint.summary_fn} (content fingerprint, which
    folds the analysis context, together with the position-relative
    locations of the callee and its transitive callees, which replayed
    alarms carry), a digest of the entry state restricted to the call's
    {!Frame} together with the by-reference bindings, and the
    alarm-collector mode.  There is no entailment shortcut: a
    weaker-entry hit could change the computed invariants, so equality
    of keys is the proof that a hit is equivalent to re-analysis.

    A summary holds the frame part of the exit state and of the
    in-callee loop invariants, and the call's side effects, all in frame
    coordinates.  Replay lays them over the caller's state and maps
    them back to the current run's cell, pack and loop ids, and alarm
    locations back onto the current program's functions (DESIGN.md §8).
    Nothing in a key or a summary names a dense id, so a summary
    computed for one program hits in every revision where the callee
    and its frame are unchanged.

    The driver installs the memo in the run's session
    ({!Astree_core.Transfer.session.ses_memo}) before running the
    wrapped analysis.  The store is written only when the run computed
    a summary it did not have: a fully warm run writes nothing. *)

module F = Astree_frontend
module C = Astree_core
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace

let c_hits = Metrics.counter "cache.hits"
let c_misses = Metrics.counter "cache.misses"

(** Transitive inlined size of each function: own statements plus the
    inlined statements of every (acyclic) callee.  This, not the local
    body size, is what a cache hit saves — a thin wrapper around a deep
    call tree is an excellent memoization point, a large leaf called
    with a tiny environment a poor one.  Back edges contribute 0
    (recursive functions are uncacheable anyway: no fingerprint). *)
let inlined_sizes (p : F.Tast.program) : (string, int) Hashtbl.t =
  let funs = Hashtbl.create 64 in
  List.iter (fun (fn, fd) -> Hashtbl.replace funs fn fd) p.F.Tast.p_funs;
  let sizes : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let rec size stack fn =
    match Hashtbl.find_opt sizes fn with
    | Some n -> n
    | None -> (
        match Hashtbl.find_opt funs fn with
        | None -> 0
        | Some fd ->
            if List.mem fn stack then 0
            else begin
              let n = ref (F.Tast.block_size fd.F.Tast.fd_body) in
              F.Tast.iter_stmts
                (fun s ->
                  match s.F.Tast.sdesc with
                  | F.Tast.Scall (_, callee, _) ->
                      n := !n + size (fn :: stack) callee
                  | _ -> ())
                fd.F.Tast.fd_body;
              Hashtbl.replace sizes fn !n;
              !n
            end)
  in
  List.iter (fun (fn, _) -> ignore (size [] fn)) p.F.Tast.p_funs;
  sizes

(** Digest of a whole abstract state in the key encoding: every cell and
    pack of the program, by name and frame position. *)
let entry_digest (a : C.Transfer.actx) (st : C.Astate.t) : string =
  let cx = Frame.ctx (Fingerprint.make a.C.Transfer.cfg a.C.Transfer.prog) a in
  Frame.entry_digest cx (Frame.whole cx) st F.Tast.VarMap.empty

(* ------------------------------------------------------------------ *)
(* Session                                                              *)
(* ------------------------------------------------------------------ *)

type session = {
  ss_ses : C.Transfer.session;  (** the analysis session the memo lives in *)
  ss_fps : Fingerprint.t;
  ss_tbl : (C.Iterator.summary_key, C.Iterator.summary) Hashtbl.t;
      (** read from the store or computed this run *)
  mutable ss_new : (C.Iterator.summary_key * C.Iterator.summary) list;
      (** computed this run, newest first: what a save publishes *)
  ss_store : Store.t option;
  mutable ss_frames : (C.Transfer.actx * Frame.ctx) option;
      (** frames of the context being analyzed *)
  mutable ss_hits : int;
  mutable ss_misses : int;
  mutable ss_load_time : float;
}

let frames (ss : session) (a : C.Transfer.actx) : Frame.ctx =
  match ss.ss_frames with
  | Some (a', cx) when a' == a -> cx
  | _ ->
      let cx = Frame.of_actx ss.ss_fps a in
      ss.ss_frames <- Some (a, cx);
      cx

let lookup (ss : session) (key : C.Iterator.summary_key) :
    C.Iterator.summary option =
  match Hashtbl.find_opt ss.ss_tbl key with
  | Some _ as r -> r
  | None -> (
      match ss.ss_store with
      | Some st when Store.mem st key ->
          let t0 = Unix.gettimeofday () in
          let r = Store.find st key in
          ss.ss_load_time <- ss.ss_load_time +. (Unix.gettimeofday () -. t0);
          Option.iter (Hashtbl.replace ss.ss_tbl key) r;
          r
      | _ -> None)

(* The memo's call wrapper: key the call, then replay or compute and
   record; the summary goes back to the caller with the result, so a
   loop's call slot keeps it instead of recording the call again. *)
let call (ss : session) (a : C.Transfer.actx) ~(fname : string)
    (binds : C.Transfer.binds) (entry : C.Astate.t)
    (body : unit -> C.Astate.t * Astree_domains.Itv.t) :
    (C.Astate.t * Astree_domains.Itv.t)
    * (C.Iterator.summary * (string * F.Loc.t -> F.Loc.t)) option =
  match Fingerprint.summary_fn ss.ss_fps fname with
  | None -> (body (), None)
  | Some fp -> (
      let cx = frames ss a in
      let fr = Frame.of_call cx ~fname binds in
      let key =
        {
          C.Iterator.sk_fn = fp;
          sk_entry = Frame.entry_digest cx fr entry binds;
          sk_checking = a.C.Transfer.alarms.C.Alarm.enabled;
        }
      in
      match lookup ss key with
      | Some s ->
          ss.ss_hits <- ss.ss_hits + 1;
          Metrics.incr c_hits;
          if !Trace.enabled then Trace.emit "cache.hit" ~args:[ ("fn", Trace.S fname) ];
          let rebase = Fingerprint.rebase ss.ss_fps in
          (C.Transfer.replay ~loc:rebase a fr ~entry s, Some (s, rebase))
      | None ->
          ss.ss_misses <- ss.ss_misses + 1;
          Metrics.incr c_misses;
          if !Trace.enabled then Trace.emit "cache.miss" ~args:[ ("fn", Trace.S fname) ];
          let cap = C.Transfer.capture_begin a in
          let r =
            try body ()
            with e ->
              C.Transfer.capture_abort a cap;
              raise e
          in
          let delta = C.Transfer.capture_end a cap in
          let recorded =
            C.Transfer.record ~loc:(Fingerprint.relative ss.ss_fps) a fr
              ~entry r delta
          in
          Option.iter
            (fun s ->
              (* keep-first: a key determines its summary *)
              if not (Hashtbl.mem ss.ss_tbl key) then begin
                Hashtbl.add ss.ss_tbl key s;
                ss.ss_new <- (key, s) :: ss.ss_new
              end)
            recorded;
          (r, Option.map (fun s -> (s, Fingerprint.rebase ss.ss_fps)) recorded))

(** Fingerprint the program, open the store under [Cache_dir] (its
    indexes only) and install the memo in the session.  Call before the
    analysis. *)
let attach (ses : C.Transfer.session) (cfg : C.Config.t) (p : F.Tast.program)
    : session =
  let fps = Fingerprint.make cfg p in
  let store, load_time =
    match cfg.C.Config.summary_cache with
    | C.Config.Cache_dir dir ->
        let t0 = Unix.gettimeofday () in
        let st = Store.open_ ~dir in
        let dt = Unix.gettimeofday () -. t0 in
        if !Trace.enabled then
          Trace.emit "cache.load" ~args:[ ("seconds", Trace.F dt) ];
        (Some st, dt)
    | _ -> (None, 0.)
  in
  let ss =
    {
      ss_ses = ses;
      ss_fps = fps;
      ss_tbl = Hashtbl.create 1024;
      ss_new = [];
      ss_store = store;
      ss_frames = None;
      ss_hits = 0;
      ss_misses = 0;
      ss_load_time = load_time;
    }
  in
  let want =
    let sizes = inlined_sizes p in
    let min_stmts = !C.Iterator.memo_min_stmts in
    fun fn ->
      match Hashtbl.find_opt sizes fn with
      | Some n -> n >= min_stmts
      | None -> false
  in
  ses.C.Transfer.ses_memo <-
    Some
      {
        C.Iterator.cm_names = Frame.names fps;
        cm_want = want;
        cm_call = call ss;
      };
  ss

(** Uninstall the memo; under [Cache_dir] and [save:true], first publish
    the summaries this run computed — a run that computed none writes
    nothing and reports a [save_time] of 0.  Returns the cache counters
    for the run. *)
let detach ?(save = true) (cfg : C.Config.t) (ss : session) :
    C.Analysis.cache_stats =
  ss.ss_ses.C.Transfer.ses_memo <- None;
  Option.iter Store.close ss.ss_store;
  let save_time =
    match cfg.C.Config.summary_cache with
    | C.Config.Cache_dir dir when save && ss.ss_new <> [] ->
        let t0 = Unix.gettimeofday () in
        Store.save ~dir (List.rev ss.ss_new);
        let dt = Unix.gettimeofday () -. t0 in
        if !Trace.enabled then
          Trace.emit "cache.save"
            ~args:
              [
                ("entries", Trace.I (List.length ss.ss_new));
                ("seconds", Trace.F dt);
              ];
        dt
    | _ -> 0.
  in
  {
    C.Analysis.c_hits = ss.ss_hits;
    c_misses = ss.ss_misses;
    c_entries = Hashtbl.length ss.ss_tbl;
    c_loaded = Option.fold ~none:0 ~some:Store.loaded ss.ss_store;
    c_load_time = ss.ss_load_time;
    c_save_time = save_time;
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let driver (ses : C.Transfer.session) (cfg : C.Config.t)
    (p : F.Tast.program) (core : unit -> C.Analysis.result) :
    C.Analysis.result =
  let ss = attach ses cfg p in
  let r =
    try core ()
    with
    | Astree_robust.Budget.Tripped _ as e ->
        (* a budget trip or an interrupt is not a failed analysis: every
           summary computed so far is valid, so publish them (the store
           write is atomic) before unwinding — the next run starts
           warm, and a SIGINT loses no work *)
        ignore (detach ~save:true cfg ss);
        raise e
    | e ->
        (* failed analyses save nothing: a partial table is valid, but an
           aborted run should leave the store exactly as it found it *)
        ignore (detach ~save:false cfg ss);
        raise e
  in
  let cstats = detach cfg ss in
  {
    r with
    C.Analysis.r_stats =
      { r.C.Analysis.r_stats with C.Analysis.s_cache = Some cstats };
  }

(** Install the summary-cache driver; analyses with
    [Config.cache_enabled] are wrapped from then on. *)
let register () = C.Analysis.cache_driver := Some driver
