(** The summary-cache driver: keys, table, and the [Analysis.cache_driver]
    implementation.

    A summary is reused only for the exact key it was computed under —
    the callee's {!Fingerprint.summary_fn} (content fingerprint, which
    folds the whole analysis context, together with the source
    locations of the callee and its transitive callees, which replayed
    alarms carry), a digest of the exact abstract entry state together
    with the by-reference bindings and their locations (caller code the
    callee evaluates), and the alarm-collector mode.  There
    is no entailment shortcut: a weaker-entry hit could change the
    computed invariants, so equality of keys is the proof that a hit is
    equivalent to re-analysis.

    The entry digest is a Merkle digest (DESIGN.md §8): environments and
    pack maps are {!Astree_core.Ptmap}s whose large subtrees cache their
    MD5, and consecutive call states share most subtrees physically, so
    a key costs time proportional to what changed since the last one.

    The driver installs the table in the run's session
    ({!Astree_core.Transfer.session.ses_memo}) before running the
    wrapped analysis.  The store is rewritten only when the table gained a key the loaded store lacks:
    a fully warm run writes nothing. *)

module F = Astree_frontend
module C = Astree_core
module D = Astree_domains

(* ------------------------------------------------------------------ *)
(* Entry-state digests                                                  *)
(* ------------------------------------------------------------------ *)

(* Entry states are written in the canonical encoding of {!C.Reldom}:
   the environment here, the relational packs by {!C.Relstate.digest}. *)

let add_avalue buf (c : C.Avalue.t) =
  let { D.Clocked.v; vminus; vplus } = c in
  C.Reldom.add_itv buf v;
  C.Reldom.add_itv buf vminus;
  C.Reldom.add_itv buf vplus

let add_env buf : C.Env.t -> unit = function
  | C.Env.Shared m ->
      Buffer.add_char buf 'S';
      Buffer.add_string buf (C.Ptmap.digest add_avalue m)
  | C.Env.Naive a ->
      Buffer.add_char buf 'N';
      C.Reldom.add_i64 buf (Array.length a);
      Array.iter
        (function
          | None -> Buffer.add_char buf '-'
          | Some v ->
              Buffer.add_char buf '+';
              add_avalue buf v)
        a

(** Digest of the exact abstract entry state of a call, after parameter
    binding, together with the by-reference bindings and their source
    locations — a bound lvalue is the caller's own expression, and an
    alarm raised while the callee evaluates it (an out-of-bounds index
    in [f(&a[i])]) is reported at the caller's location, which the
    callee's {!Fingerprint.summary_fn} does not cover.  Canonical: the
    environment and pack maps are Patricia trees, whose shape is a
    function of the key set, and [Map]s are written in key order, so
    equal states give equal digests across processes and runs.  Every
    Merkle node is an MD5 over an unambiguous encoding, so key equality
    is as strong as an MD5 of the whole state. *)
let entry_digest (st : C.Astate.t) (binds : C.Transfer.binds) : string =
  let { C.Astate.bot; env; rel; clock } = st in
  let buf = Buffer.create 256 in
  Buffer.add_char buf (if bot then '1' else '0');
  C.Reldom.add_itv buf clock;
  add_env buf env;
  C.Relstate.digest buf rel;
  C.Reldom.add_i64 buf (F.Tast.VarMap.cardinal binds);
  F.Tast.VarMap.iter
    (fun v lv ->
      Fingerprint.add_var buf v;
      Fingerprint.add_lval buf lv;
      Fingerprint.add_lval_locs buf lv)
    binds;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let key_fn (fps : Fingerprint.t) ~(fname : string) ~(checking : bool)
    (st : C.Astate.t) (binds : C.Transfer.binds) :
    C.Iterator.summary_key option =
  match Fingerprint.summary_fn fps fname with
  | None -> None
  | Some fp ->
      Some
        {
          C.Iterator.sk_fn = fp;
          sk_entry = entry_digest st binds;
          sk_checking = checking;
        }

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

(* ------------------------------------------------------------------ *)
(* Session                                                              *)
(* ------------------------------------------------------------------ *)

type session = {
  ss_ses : C.Transfer.session;  (** the analysis session the memo lives in *)
  ss_fps : Fingerprint.t;
  ss_tbl : (C.Iterator.summary_key, C.Iterator.summary) Hashtbl.t;
  ss_memo : C.Iterator.call_memo;
  ss_loaded : int;
      (** entries read from the store: distinct keys (merge-on-save
          writes each once), all of them in the table *)
  ss_load_time : float;
}

(** Fingerprint the program, build the summary table (populated from
    [ses.ses_preload] first — the daemon's resident entries — then from
    the on-disk store under [Cache_dir], keep-first) and install it in
    the analysis session.  Call before the analysis. *)
let attach (ses : C.Transfer.session) (cfg : C.Config.t) (p : F.Tast.program)
    : session =
  let fps = Fingerprint.make cfg p in
  let tbl = Hashtbl.create 1024 in
  (* resident entries first: keys self-identify their configuration (the
     fingerprint folds the config digest), so entries computed under a
     different config — e.g. a degraded retry — simply never match *)
  List.iter
    (fun (k, s) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k s)
    ses.C.Transfer.ses_preload;
  let loaded, load_time =
    match cfg.C.Config.summary_cache with
    | C.Config.Cache_dir dir ->
        let t0 = Unix.gettimeofday () in
        let entries = Store.load ~dir ~key:(Fingerprint.program fps) in
        List.iter
          (fun (k, s) -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k s)
          entries;
        let dt = Unix.gettimeofday () -. t0 in
        if !Astree_obs.Trace.enabled then
          Astree_obs.Trace.emit "cache.load"
            ~args:
              [
                ("entries", Astree_obs.Trace.I (List.length entries));
                ("seconds", Astree_obs.Trace.F dt);
              ];
        (List.length entries, dt)
    | _ -> (0, 0.)
  in
  let memo =
    {
      C.Iterator.cm_key = key_fn fps;
      cm_find = Hashtbl.find_opt tbl;
      (* keep-first: a key determines its summary, so re-adding can
         never change an entry *)
      cm_add =
        (fun k s -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k s);
      cm_hits = ref 0;
      cm_misses = ref 0;
      cm_want =
        (let sizes = inlined_sizes p in
         let min_stmts = !C.Iterator.memo_min_stmts in
         fun fn ->
           match Hashtbl.find_opt sizes fn with
           | Some n -> n >= min_stmts
           | None -> false);
    }
  in
  ses.C.Transfer.ses_memo <- Some memo;
  {
    ss_ses = ses;
    ss_fps = fps;
    ss_tbl = tbl;
    ss_memo = memo;
    ss_loaded = loaded;
    ss_load_time = load_time;
  }

(** Uninstall the table; under [Cache_dir] and [save:true], persist it
    first — but only if it holds a key the loaded store lacks: a run
    that added nothing leaves the store file untouched (same inode,
    mtime and bytes) and reports a [save_time] of 0.  When the analysis
    session asked for it ([ses_collect_tables]), the final table is also
    recorded in [ses_tables] so a resident server can absorb it.
    Returns the cache counters for the run. *)
let detach ?(save = true) (cfg : C.Config.t) (ss : session) :
    C.Analysis.cache_stats =
  ss.ss_ses.C.Transfer.ses_memo <- None;
  if ss.ss_ses.C.Transfer.ses_collect_tables then
    ss.ss_ses.C.Transfer.ses_tables <-
      ( Fingerprint.program ss.ss_fps,
        Hashtbl.fold (fun k s acc -> (k, s) :: acc) ss.ss_tbl [] )
      :: ss.ss_ses.C.Transfer.ses_tables;
  let save_time =
    match cfg.C.Config.summary_cache with
    | C.Config.Cache_dir dir
      when save && Hashtbl.length ss.ss_tbl > ss.ss_loaded ->
        let t0 = Unix.gettimeofday () in
        Store.save ~dir
          ~key:(Fingerprint.program ss.ss_fps)
          (Hashtbl.fold (fun k s acc -> (k, s) :: acc) ss.ss_tbl []);
        let dt = Unix.gettimeofday () -. t0 in
        if !Astree_obs.Trace.enabled then
          Astree_obs.Trace.emit "cache.save"
            ~args:
              [
                ("entries", Astree_obs.Trace.I (Hashtbl.length ss.ss_tbl));
                ("seconds", Astree_obs.Trace.F dt);
              ];
        dt
    | _ -> 0.
  in
  {
    C.Analysis.c_hits = !(ss.ss_memo.C.Iterator.cm_hits);
    c_misses = !(ss.ss_memo.C.Iterator.cm_misses);
    c_entries = Hashtbl.length ss.ss_tbl;
    c_loaded = ss.ss_loaded;
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
           summary computed so far is valid, so flush the table (the
           store write is atomic) before unwinding — the next run starts
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
