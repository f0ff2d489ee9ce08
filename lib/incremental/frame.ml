(** Summary frames (DESIGN.md §8): {!Astree_core.Frame} with
    program-stable names, and the entry digest that keys the store. *)

module F = Astree_frontend
module C = Astree_core
open F.Tast

type t = C.Frame.t
type ctx = { cx_frames : C.Frame.ctx; cx_fps : Fingerprint.t }

let names (fps : Fingerprint.t) : C.Frame.names =
  {
    C.Frame.var_name = Fingerprint.var_name fps;
    loop_name = Fingerprint.loop_name fps;
  }

let ctx (fps : Fingerprint.t) (a : C.Transfer.actx) : ctx =
  {
    cx_frames =
      C.Frame.ctx ~names:(names fps) a.C.Transfer.prog a.C.Transfer.funs
        a.C.Transfer.cfg a.C.Transfer.packs a.C.Transfer.intern;
    cx_fps = fps;
  }

let of_actx (fps : Fingerprint.t) (a : C.Transfer.actx) : ctx =
  if C.Frame.names a.C.Transfer.frames = None then ctx fps a
  else { cx_frames = a.C.Transfer.frames; cx_fps = fps }

let of_call (cx : ctx) = C.Frame.of_call cx.cx_frames
let whole (cx : ctx) = C.Frame.whole cx.cx_frames

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
    callee evaluates it carries the caller's location. *)
let entry_digest (cx : ctx) (fr : t) (st : C.Astate.t)
    (binds : C.Transfer.binds) : string =
  let fps = cx.cx_fps in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (C.Frame.id fr);
  Buffer.add_char buf (if st.C.Astate.bot then '1' else '0');
  C.Reldom.add_itv buf st.C.Astate.clock;
  Array.iter
    (fun cid ->
      match C.Env.find st.C.Astate.env cid with
      | None -> Buffer.add_char buf '-'
      | Some v ->
          Buffer.add_char buf '+';
          add_avalue buf v)
    (C.Frame.cells fr);
  C.Frame.add_packs buf fr st;
  C.Reldom.add_i64 buf (VarMap.cardinal binds);
  VarMap.iter
    (fun v lv ->
      C.Reldom.add_str buf (Fingerprint.var_name fps v);
      Fingerprint.add_lval fps buf lv;
      Fingerprint.add_lval_locs fps buf lv)
    binds;
  Digest.to_hex (Digest.string (Buffer.contents buf))
