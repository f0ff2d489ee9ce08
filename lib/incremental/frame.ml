(** Summary frames (DESIGN.md §8): the program-stable names
    {!Astree_core.Frame} is built with when the keyed tier is
    installed, and the entry digest that keys the store. *)

module F = Astree_frontend
module C = Astree_core
open F.Tast

let names (fps : Fingerprint.t) : C.Frame.names =
  {
    C.Frame.var_name = Fingerprint.var_name fps;
    loop_name = Fingerprint.loop_name fps;
  }

let add_avalue buf (c : C.Avalue.t) =
  let { Astree_domains.Clocked.v; vminus; vplus } = c in
  C.Reldom.add_itv buf v;
  C.Reldom.add_itv buf vminus;
  C.Reldom.add_itv buf vplus

(** Digest of a call's entry state restricted to its frame, with the
    by-reference bindings: the frame's identity, the bottom flag and
    the clock, every frame cell and pack in frame order, and each bound
    lvalue by variable names with its relative locations — a bound
    lvalue is the caller's own expression, and an alarm raised while the
    callee evaluates it carries the caller's location.  [buf] is
    cleared first and keeps its capacity, so one buffer serves every key
    of a run without growing again. *)
let entry_digest (buf : Buffer.t) (fps : Fingerprint.t) (fr : C.Frame.t)
    (st : C.Astate.t) (binds : C.Transfer.binds) : string =
  Buffer.clear buf;
  Buffer.add_string buf (C.Frame.id fr);
  Buffer.add_char buf (if st.C.Astate.bot then '1' else '0');
  C.Reldom.add_itv buf st.C.Astate.clock;
  C.Frame.iter_cells
    (fun cid ->
      match C.Env.find st.C.Astate.env cid with
      | None -> Buffer.add_char buf '-'
      | Some v ->
          Buffer.add_char buf '+';
          add_avalue buf v)
    fr;
  C.Frame.add_packs buf fr st;
  C.Reldom.add_i64 buf (VarMap.cardinal binds);
  VarMap.iter
    (fun v lv ->
      C.Reldom.add_str buf (Fingerprint.var_name fps v);
      Fingerprint.add_lval fps buf lv;
      Fingerprint.add_lval_locs fps buf lv)
    binds;
  Digest.to_hex (Digest.string (Buffer.contents buf))
