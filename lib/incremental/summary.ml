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
    wrapped analysis, so the parallel scheduler's forked workers
    inherit both the table and the pre-loaded store; workers
    ship fresh summaries back in their job deltas and the parent absorbs
    them in job order (keep-first, deterministic).  The store is
    rewritten only when the table gained a key the loaded store lacks:
    a fully warm run writes nothing. *)

module F = Astree_frontend
module C = Astree_core
module D = Astree_domains

(* ------------------------------------------------------------------ *)
(* Entry-state digests                                                  *)
(* ------------------------------------------------------------------ *)

(* A canonical, location-free binary form of abstract values: fixed-width
   integers, floats by their bits, strings length-prefixed, one tag byte
   per variant — self-delimiting, so concatenations cannot collide.
   Variables are written by their unique name, never by a record that
   carries a source location.  Every record is taken apart with an
   exhaustive pattern, so a field added later breaks the build here
   (warning 9) until it is written or explicitly skipped: a field left
   out of the key would let two different states share it. *)

let add_i64 buf n = Buffer.add_int64_le buf (Int64.of_int n)
let add_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let add_str buf s =
  add_i64 buf (String.length s);
  Buffer.add_string buf s

let add_name buf (v : F.Tast.var) = add_str buf v.F.Tast.v_name
let add_names buf vs =
  add_i64 buf (Array.length vs);
  Array.iter (add_name buf) vs

let add_itv buf : D.Itv.t -> unit = function
  | D.Itv.Bot -> Buffer.add_char buf 'b'
  | D.Itv.Int (lo, hi) ->
      Buffer.add_char buf 'i';
      add_i64 buf lo;
      add_i64 buf hi
  | D.Itv.Float (lo, hi) ->
      Buffer.add_char buf 'f';
      add_float buf lo;
      add_float buf hi

let add_avalue buf (c : C.Avalue.t) =
  let { D.Clocked.v; vminus; vplus } = c in
  add_itv buf v;
  add_itv buf vminus;
  add_itv buf vplus

(* the pack index is derived from the pack, so it is not written *)
let add_octagon buf (o : D.Octagon.t) =
  let { D.Octagon.pack; bot; n2; m; closure; index = _ } = o in
  add_names buf pack;
  Buffer.add_char buf (if bot then '1' else '0');
  (match closure with
  | D.Octagon.Closed -> Buffer.add_char buf 'C'
  | D.Octagon.Unclosed -> Buffer.add_char buf 'U'
  | D.Octagon.Dirty mask ->
      Buffer.add_char buf 'D';
      add_i64 buf mask);
  add_i64 buf n2;
  Array.iter (add_float buf) m

let add_ellipsoid buf (e : D.Ellipsoid.t) =
  let { D.Ellipsoid.a; b; fkind; vars; k } = e in
  add_float buf a;
  add_float buf b;
  Buffer.add_char buf
    (match fkind with F.Ctypes.Fsingle -> 's' | Fdouble -> 'd');
  add_names buf vars;
  add_i64 buf (D.Ellipsoid.PairMap.cardinal k);
  D.Ellipsoid.PairMap.iter
    (fun (x, y) kxy ->
      add_i64 buf x;
      add_i64 buf y;
      add_float buf kxy)
    k

let add_dtree buf (d : D.Decision_tree.t) =
  let { D.Decision_tree.bools; nums; tree = root } = d in
  add_names buf bools;
  add_names buf nums;
  let rec tree = function
    | D.Decision_tree.Leaf None -> Buffer.add_char buf 'n'
    | D.Decision_tree.Leaf (Some m) ->
        Buffer.add_char buf 'l';
        add_i64 buf (F.Tast.VarMap.cardinal m);
        F.Tast.VarMap.iter
          (fun v i ->
            add_name buf v;
            add_itv buf i)
          m
    | D.Decision_tree.Node (v, f, t) ->
        Buffer.add_char buf 'N';
        add_name buf v;
        tree f;
        tree t
  in
  tree root

let add_env buf : C.Env.t -> unit = function
  | C.Env.Shared m ->
      Buffer.add_char buf 'S';
      Buffer.add_string buf (C.Ptmap.digest add_avalue m)
  | C.Env.Naive a ->
      Buffer.add_char buf 'N';
      add_i64 buf (Array.length a);
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
  let { C.Relstate.octs; ells; dts } = rel in
  let buf = Buffer.create 256 in
  Buffer.add_char buf (if bot then '1' else '0');
  add_itv buf clock;
  add_env buf env;
  Buffer.add_string buf (C.Ptmap.digest add_octagon octs);
  Buffer.add_string buf (C.Ptmap.digest add_ellipsoid ells);
  Buffer.add_string buf (C.Ptmap.digest add_dtree dts);
  add_i64 buf (F.Tast.VarMap.cardinal binds);
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
    the analysis session.  Call before the analysis — and before the
    parallel pool forks, so workers inherit the hot table. *)
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
      (* keep-first: a key determines its summary, so re-adding (e.g.
         replaying worker deltas) can never change an entry *)
      cm_add =
        (fun k s -> if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k s);
      cm_fresh = ref [];
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
