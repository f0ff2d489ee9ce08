(** The call memo (DESIGN.md §6, §8).

    Context-sensitive polyvariant inlining (Sect. 5.4) re-analyzes a
    callee for every call context.  The call memo replays a call whose
    input was seen before instead, through one record-and-replay path
    with two tiers:

    - the exact tier, with loop lifetime: the enclosing loop's two slots
      for this call site, compared exactly with the call's framed entry
      (differential iteration, §6);
    - the keyed tier, with cross-run lifetime: the summary store behind
      [session.ses_keyed], for callees of at least [memo_min_stmts]
      inlined statements, under a key that [Astree_incremental] computes
      (§8).

    A call is replayed from a slot, else from the keyed tier, else
    computed in one section and recorded once; its summary then goes to
    the slot and to the keyed tier.  There is no entailment shortcut
    anywhere, so a replay is equivalent to re-analysis by
    construction. *)

module F = Astree_frontend
module D = Astree_domains
module Metrics = Astree_obs.Metrics
module Trace = Astree_obs.Trace
open F.Tast
open Transfer

let c_calls_replayed = Metrics.counter "iter.calls_replayed"
let c_cache_hits = Metrics.counter "cache.hits"
let c_cache_misses = Metrics.counter "cache.misses"

(* ------------------------------------------------------------------ *)
(* Call sites and slots                                                 *)
(* ------------------------------------------------------------------ *)

(* Tables keyed by a statement itself, not by its contents. *)
module Stmt_tbl = Hashtbl.Make (struct
  type t = stmt

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* One computed call as a loop's call site keeps it: its framed entry,
   the by-reference bindings and its summary.  Its clock and alarm mode
   are the site's. *)
type call_slot = {
  sl_entry : Frame.entry;
  sl_binds : binds;
  sl_summary : summary;
}

(* A call statement under one loop and one inlining stack: the clock and
   alarm mode of its latest call, its last two recorded calls under
   them, the newer first, and the call sites of its callee's body. *)
type call_site = {
  mutable cs_clock : D.Itv.t;
  mutable cs_checking : bool;
  mutable cs_new : call_slot option;
  mutable cs_old : call_slot option;
  cs_inner : sites;
}

and sites = call_site Stmt_tbl.t Lazy.t option

let no_sites : sites = None
let loop_sites () : sites = Some (Lazy.from_val (Stmt_tbl.create 64))

(* The call site [site] of a body whose call sites are [tbl]. *)
let site_in (tbl : call_site Stmt_tbl.t) (site : stmt) : call_site =
  match Stmt_tbl.find_opt tbl site with
  | Some cs -> cs
  | None ->
      let cs =
        {
          cs_clock = D.Itv.Bot;
          cs_checking = false;
          cs_new = None;
          cs_old = None;
          cs_inner = Some (lazy (Stmt_tbl.create 8));
        }
      in
      Stmt_tbl.add tbl site cs;
      cs

(* Do the slots of [cs] hold calls of [st]'s clock and this alarm mode?
   The clock is an input of every call and moves at almost every
   iterate until it settles, so a site first compares the clock and
   mode with its previous call's; when they differ, no slot can match
   and the slots are dropped. *)
let holds (cs : call_site) (st : Astate.t) ~(checking : bool) : bool =
  let clock = st.Astate.clock in
  if Reldom.same_itv clock cs.cs_clock && checking = cs.cs_checking then true
  else begin
    cs.cs_clock <- clock;
    cs.cs_checking <- checking;
    cs.cs_new <- None;
    cs.cs_old <- None;
    false
  end

(* ------------------------------------------------------------------ *)
(* Sections: record and replay                                          *)
(* ------------------------------------------------------------------ *)

(* Close a section opened at journal length [start]: the section's
   writes, oldest first; the journal is emptied once no section is
   open. *)
let journal_close (a : actx) (start : int) : journal_entry list =
  let rec take n l acc =
    match l with x :: l when n > 0 -> take (n - 1) l (x :: acc) | _ -> acc
  in
  let own = take (a.journal_len - start) a.journal [] in
  a.sections <- a.sections - 1;
  if a.sections = 0 then begin
    a.journal <- [];
    a.journal_len <- 0
  end;
  own

(* Put the guarantee collector [saved] at entry back and join the
   call's writes into it: the guarantee is a union, so the collector
   ends as if the writes had gone to it directly.  Returns the call's
   writes, sorted by key. *)
let itf_release (a : actx) (saved : (itf_key, D.Itv.t) Hashtbl.t option) :
    (itf_key * D.Itv.t) list =
  match (a.session.ses_itf, saved) with
  | Some it, Some saved ->
      let own = it.itf_writes in
      it.itf_writes <- saved;
      Hashtbl.fold (fun key v acc -> (key, v) :: acc) own []
      |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
      |> List.map (fun (key, v) ->
             itf_record it key v;
             (key, v))
  | _ -> []

(* The loop invariants and useful packs of a section's writes, each
   sorted by id: an invariant the call left physically different from
   its value at entry (the oldest journaled previous value), a pack the
   call made useful. *)
let effects (a : actx) (own : journal_entry list) :
    (int * Astate.t) list * int list =
  let invariants, oct_useful, _ =
    List.fold_left
      (fun (invs, octs, seen) -> function
        | Jinvariant (id, _) when List.mem id seen -> (invs, octs, seen)
        | Jinvariant (id, prev) -> (
            let seen = id :: seen in
            match (prev, Hashtbl.find_opt a.invariants id) with
            | Some old, Some st when old == st -> (invs, octs, seen)
            | _, Some st -> ((id, st) :: invs, octs, seen)
            | _, None -> (invs, octs, seen))
        | Juseful id -> (invs, id :: octs, seen))
      ([], [], []) own
  in
  ( List.sort (fun (x, _) (y, _) -> Int.compare x y) invariants,
    List.sort Int.compare oct_useful )

let record (a : actx) (fr : Frame.t) ~(entry : Astate.t)
    (compute : 'a -> Astate.t * D.Itv.t) (x : 'a) :
    (Astate.t * D.Itv.t) * summary option =
  a.sections <- a.sections + 1;
  let start = a.journal_len and joins = a.join_count in
  let alarms = Alarm.capture a.alarms in
  let itf =
    match a.session.ses_itf with
    | None -> None
    | Some it ->
        let saved = it.itf_writes in
        it.itf_writes <- Hashtbl.create 16;
        Some saved
  in
  match compute x with
  | exception e ->
      ignore (Alarm.release a.alarms alarms);
      ignore (journal_close a start);
      ignore (itf_release a itf);
      raise e
  | (exit_, retv) as r ->
      let alarms = Alarm.release a.alarms alarms in
      let invariants, oct_useful = effects a (journal_close a start) in
      let joins = a.join_count - joins in
      let writes = itf_release a itf in
      let get = function Some i -> i | None -> raise Exit in
      ( r,
        try
          Some
            {
              sm_exit = Frame.restrict fr ~entry exit_;
              sm_retv = retv;
              sm_alarms = List.map (fun al -> ("", al)) alarms;
              sm_invariants =
                List.map
                  (fun (id, inv) ->
                    (get (Frame.loop_pos fr id), Frame.restrict fr ~entry inv))
                  invariants;
              sm_oct_useful =
                List.map (fun id -> get (Frame.oct_pos fr id)) oct_useful;
              sm_joins = joins;
              sm_itf_writes =
                List.map
                  (fun ((root, path), v) ->
                    ( get
                        (Option.bind (Cell.find a.intern root path)
                           (Frame.cell_pos fr)),
                      v ))
                  writes;
            }
        with Exit -> None )

let replay (a : actx) (fr : Frame.t) ~(entry : Astate.t) (s : summary) :
    Astate.t * D.Itv.t =
  Alarm.absorb a.alarms (List.map snd s.sm_alarms);
  List.iter
    (fun (i, inv) ->
      set_invariant a (Frame.loop_at fr i) (Frame.overlay fr inv entry))
    s.sm_invariants;
  List.iter (fun i -> mark_useful a (Frame.oct_at fr i)) s.sm_oct_useful;
  a.join_count <- a.join_count + s.sm_joins;
  (match a.session.ses_itf with
  | None -> ()
  | Some it ->
      List.iter
        (fun (i, v) ->
          let c = Cell.of_id a.intern (Frame.cell_at fr i) in
          itf_record it (c.Cell.root.v_id, c.Cell.path) v)
        s.sm_itf_writes);
  (Frame.overlay fr s.sm_exit entry, s.sm_retv)

(* ------------------------------------------------------------------ *)
(* The two tiers                                                        *)
(* ------------------------------------------------------------------ *)

(** Minimal transitive inlined statement count of a callee before
    the keyed tier is worth a key: the digest of the entry state
    restricted to the callee's frame, the lookup and, on a miss, the
    section (DESIGN.md §8).  Keying tiny helpers is a net loss; only
    callees whose re-analysis (including everything they inline)
    dwarfs that cost deserve a summary. *)
let memo_min_stmts = ref 30

(* Is [fname] big enough for the keyed tier? *)
let wanted (a : actx) (fname : string) : bool =
  match Hashtbl.find_opt (Lazy.force a.inlined) fname with
  | Some n -> n >= !memo_min_stmts
  | None -> false

(* Replay the slot of [cs] whose framed entry and bindings are the
   call's, the newer slot first; a match in the older one makes it the
   newer, so the other one goes next. *)
let replay_slot (a : actx) (cs : call_site) (fr : Frame.t) (binds : binds)
    (st : Astate.t) : (Astate.t * D.Itv.t) option =
  let matches = function
    | Some sl ->
        (sl.sl_binds == binds
        || VarMap.equal (fun x y -> x == y || x = y) sl.sl_binds binds)
        && Frame.same_entry fr sl.sl_entry st
    | None -> false
  in
  let replay_sl sl =
    Metrics.incr c_calls_replayed;
    Some (replay a fr ~entry:st sl.sl_summary)
  in
  let newer = cs.cs_new and older = cs.cs_old in
  if matches newer then replay_sl (Option.get newer)
  else if matches older then begin
    cs.cs_old <- newer;
    cs.cs_new <- older;
    replay_sl (Option.get older)
  end
  else None

(* The keyed tier's summary under [key]: the one place that counts a
   keyed lookup in the registry and the trace. *)
let lookup (k : keyed) ~(fname : string) (key : summary_key) : summary option
    =
  let found = k.kt_find key in
  let hit = Option.is_some found in
  Metrics.incr (if hit then c_cache_hits else c_cache_misses);
  if !Trace.enabled then
    Trace.emit
      (if hit then "cache.hit" else "cache.miss")
      ~args:[ ("fn", Trace.S fname) ];
  found

(* A call that a slot or the keyed tier may answer: [slots] is the
   call's site when its slots can match, [inner] the call sites of the
   callee's body. *)
let memo (a : actx) (slots : call_site option) (inner : sites)
    (keyed : keyed option) ~(fname : string) (binds : binds) (st : Astate.t)
    (compute : sites -> Astate.t * D.Itv.t) : Astate.t * D.Itv.t =
  let fr = Frame.of_call a.frames ~fname binds in
  match
    match slots with Some cs -> replay_slot a cs fr binds st | None -> None
  with
  | Some r -> r
  | None -> (
      let r, summary =
        match keyed with
        | None -> record a fr ~entry:st compute inner
        | Some k -> (
            match k.kt_key a ~fname fr binds st with
            | Some key -> (
                match lookup k ~fname key with
                | Some s as found -> (replay a fr ~entry:st s, found)
                | None ->
                    let ((_, s) as rs) = record a fr ~entry:st compute inner in
                    (match s with Some s -> k.kt_add key s | None -> ());
                    rs)
            | None when Option.is_none slots -> (compute inner, None)
            | None -> record a fr ~entry:st compute inner)
      in
      match (slots, summary) with
      | Some cs, Some s ->
          cs.cs_old <- cs.cs_new;
          cs.cs_new <-
            Some { sl_entry = Frame.entry fr st; sl_binds = binds; sl_summary = s };
          r
      | _ -> r)

let call (a : actx) (sites : sites) ~(site : stmt) ~(fname : string)
    (binds : binds) (st : Astate.t) (compute : sites -> Astate.t * D.Itv.t) :
    Astate.t * D.Itv.t =
  let keyed =
    match a.session.ses_keyed with
    | Some _ as keyed when wanted a fname -> keyed
    | _ -> None
  in
  match sites with
  | None when keyed == None -> compute None
  | None -> memo a None None keyed ~fname binds st compute
  | Some tbl ->
      let cs = site_in (Lazy.force tbl) site in
      if holds cs st ~checking:a.alarms.Alarm.enabled then
        memo a (Some cs) cs.cs_inner keyed ~fname binds st compute
      else if keyed == None then compute cs.cs_inner
      else memo a None cs.cs_inner keyed ~fname binds st compute
