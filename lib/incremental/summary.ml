(** The call memo's keyed tier (DESIGN.md §8): keys, the run table and
    the store, and the [Analysis.cache_driver] implementation.

    A summary is reused only for the exact key it was computed under —
    the callee's {!Fingerprint.summary_fn} (content fingerprint, which
    folds the analysis context, together with the position-relative
    locations of the callee and its transitive callees, which replayed
    alarms carry), a digest of the entry state restricted to the call's
    frame together with the by-reference bindings, and the
    alarm-collector mode.  There is no entailment shortcut: a
    weaker-entry hit could change the computed invariants, so equality
    of keys is the proof that a hit is equivalent to re-analysis.

    The call memo computes, records and replays summaries
    ([Astree_core.Memo.call]); this module supplies only what it cannot
    compute: the key, the program-stable frame names, and find/add
    against the run's table and the store, where [find] counts the
    run's hits and misses.  A summary holds
    the frame part of the exit state and of the in-callee loop
    invariants, and the call's side effects, all in frame coordinates,
    so nothing in a key or a summary names a dense id.  The store owns
    the relative-location format: an added summary's alarm locations are
    made relative to their functions ({!Fingerprint.relative}) and a
    found one's laid back onto the current program
    ({!Fingerprint.rebase}), so a summary computed for one program hits
    in every revision where the callee and its frame are unchanged.

    The driver installs the tier in the run's session
    ({!Astree_core.Transfer.session.ses_keyed}) before running the
    wrapped analysis.  The store is written only when the run computed
    a summary it did not have: a fully warm run writes nothing. *)

module F = Astree_frontend
module C = Astree_core
module Trace = Astree_obs.Trace

(* The program's fingerprints and the frame names built from them, kept
   in its prepared record: a kept record keys its next runs without
   fingerprinting again, and its frame names stay physically the same,
   which the frames it shares are checked against. *)
type C.Transfer.extra += Keys of Fingerprint.t * C.Frame.names

let keys (pr : C.Transfer.prepared) : Fingerprint.t * C.Frame.names =
  match pr.C.Transfer.pr_extra with
  | Some (Keys (fps, nm)) -> (fps, nm)
  | _ ->
      let fps = Fingerprint.make pr.C.Transfer.pr_cfg pr.C.Transfer.pr_prog in
      let nm = Frame.names fps in
      pr.C.Transfer.pr_extra <- Some (Keys (fps, nm));
      (fps, nm)

(** Digest of a whole abstract state in the key encoding: every cell and
    pack of the program, by name and frame position. *)
let entry_digest (a : C.Transfer.actx) (st : C.Astate.t) : string =
  let fps, nm = keys a.C.Transfer.prepared in
  let cx = C.Frame.ctx ~names:nm a.C.Transfer.prepared.C.Transfer.pr_frames in
  Frame.entry_digest (Buffer.create 1024) fps (C.Frame.whole cx) st
    F.Tast.VarMap.empty

(* ------------------------------------------------------------------ *)
(* Session                                                              *)
(* ------------------------------------------------------------------ *)

type session = {
  ss_ses : C.Transfer.session;  (** the analysis session the tier lives in *)
  ss_dir : string;
  ss_fps : Fingerprint.t;
  ss_tbl : (C.Transfer.summary_key, C.Transfer.summary) Hashtbl.t;
      (** computed this run, relative locations: keep-first and the
          answers to the run's own repeats; a summary read from the
          store is replayed, not kept *)
  mutable ss_new : (C.Transfer.summary_key * C.Transfer.summary) list;
      (** computed this run, newest first: what a save publishes *)
  ss_store : Store.t;
  mutable ss_hits : int;  (** lookups {!find} answered this run *)
  mutable ss_misses : int;  (** lookups it did not *)
  ss_buf : Buffer.t;  (** where every key's entry digest is assembled *)
  mutable ss_load_time : float;
}

let map_alarms f (s : C.Transfer.summary) =
  match s.C.Transfer.sm_alarms with
  | [] -> s
  | l -> { s with C.Transfer.sm_alarms = List.map f l }

let key (ss : session) (a : C.Transfer.actx) ~(fname : string)
    (fr : C.Frame.t) (binds : C.Transfer.binds) (entry : C.Astate.t) :
    C.Transfer.summary_key option =
  Option.map
    (fun fp ->
      {
        C.Transfer.sk_fn = fp;
        sk_entry = Frame.entry_digest ss.ss_buf ss.ss_fps fr entry binds;
        sk_checking = a.C.Transfer.alarms.C.Alarm.enabled;
      })
    (Fingerprint.summary_fn ss.ss_fps fname)

(* A summary of the table or the store, its alarm locations laid back
   onto this program; every call is one of the run's lookups. *)
let find (ss : session) (key : C.Transfer.summary_key) :
    C.Transfer.summary option =
  let r =
    match Hashtbl.find_opt ss.ss_tbl key with
    | Some _ as r -> r
    | None when Store.mem ss.ss_store key ->
        let t0 = Unix.gettimeofday () in
        let r = Store.find ss.ss_store key in
        ss.ss_load_time <- ss.ss_load_time +. (Unix.gettimeofday () -. t0);
        r
    | None -> None
  in
  if Option.is_some r then ss.ss_hits <- ss.ss_hits + 1
  else ss.ss_misses <- ss.ss_misses + 1;
  Option.map
    (map_alarms (fun (owner, (al : C.Alarm.t)) ->
         let l = Fingerprint.rebase ss.ss_fps (owner, al.C.Alarm.a_loc) in
         ("", { al with C.Alarm.a_loc = l })))
    r

(* A computed summary, its alarm locations made relative to their
   functions; keep-first: a key determines its summary. *)
let add (ss : session) (key : C.Transfer.summary_key) (s : C.Transfer.summary)
    : unit =
  if not (Hashtbl.mem ss.ss_tbl key) then begin
    let s =
      map_alarms
        (fun (_, (al : C.Alarm.t)) ->
          let owner, l = Fingerprint.relative ss.ss_fps al.C.Alarm.a_loc in
          (owner, { al with C.Alarm.a_loc = l }))
        s
    in
    Hashtbl.add ss.ss_tbl key s;
    ss.ss_new <- (key, s) :: ss.ss_new
  end

(** Fingerprint the program (once per prepared record), open the store
    in the [Cache_dir] directory (its indexes only) and install the
    keyed tier in the session.  Call before the analysis. *)
let attach (ses : C.Transfer.session) (pr : C.Transfer.prepared) : session =
  let dir =
    match pr.C.Transfer.pr_cfg.C.Config.summary_cache with
    | C.Config.Cache_dir dir -> dir
    | C.Config.Cache_off -> invalid_arg "Summary.attach: no cache directory"
  in
  let fps, names = keys pr in
  let t0 = Unix.gettimeofday () in
  let store = Store.open_ ~dir in
  let load_time = Unix.gettimeofday () -. t0 in
  if !Trace.enabled then
    Trace.emit "cache.load" ~args:[ ("seconds", Trace.F load_time) ];
  let ss =
    {
      ss_ses = ses;
      ss_dir = dir;
      ss_fps = fps;
      ss_tbl = Hashtbl.create 1024;
      ss_new = [];
      ss_store = store;
      ss_hits = 0;
      ss_misses = 0;
      ss_buf = Buffer.create 1024;
      ss_load_time = load_time;
    }
  in
  ses.C.Transfer.ses_keyed <-
    Some
      {
        C.Transfer.kt_names = names;
        kt_key = key ss;
        kt_find = find ss;
        kt_add = add ss;
      };
  ss

(** Uninstall the keyed tier; under [save:true], first publish the
    summaries this run computed — a run that computed none writes
    nothing and reports a [save_time] of 0.  Returns the cache counters
    for the run. *)
let detach ?(save = true) (ss : session) : C.Analysis.cache_stats =
  ss.ss_ses.C.Transfer.ses_keyed <- None;
  Store.close ss.ss_store;
  let save_time =
    if save && ss.ss_new <> [] then begin
      let t0 = Unix.gettimeofday () in
      Store.save ~opened:ss.ss_store ~dir:ss.ss_dir (List.rev ss.ss_new);
      let dt = Unix.gettimeofday () -. t0 in
      if !Trace.enabled then
        Trace.emit "cache.save"
          ~args:
            [
              ("entries", Trace.I (List.length ss.ss_new));
              ("seconds", Trace.F dt);
            ];
      dt
    end
    else 0.
  in
  {
    C.Analysis.c_hits = ss.ss_hits;
    c_misses = ss.ss_misses;
    c_entries = Hashtbl.length ss.ss_tbl;
    c_loaded = Store.loaded ss.ss_store;
    c_load_time = ss.ss_load_time;
    c_save_time = save_time;
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let driver (ses : C.Transfer.session) (pr : C.Transfer.prepared)
    (core : unit -> C.Analysis.result) : C.Analysis.result =
  let ss = attach ses pr in
  let r =
    try core ()
    with
    | Astree_robust.Budget.Tripped _ as e ->
        (* a budget trip or an interrupt is not a failed analysis: every
           summary computed so far is valid, so publish them (the store
           write is atomic) before unwinding — the next run starts
           warm, and a SIGINT loses no work *)
        ignore (detach ~save:true ss);
        raise e
    | e ->
        (* failed analyses save nothing: a partial table is valid, but an
           aborted run should leave the store exactly as it found it *)
        ignore (detach ~save:false ss);
        raise e
  in
  let cstats = detach ss in
  {
    r with
    C.Analysis.r_stats =
      { r.C.Analysis.r_stats with C.Analysis.s_cache = Some cstats };
  }

(** Install the summary-cache driver; analyses with
    [Config.cache_enabled] are wrapped from then on. *)
let register () = C.Analysis.cache_driver := Some driver
