(** Census of the main loop invariant (Sect. 9.4.1).

    The paper dumps the main loop invariant (a textual file over 4.5 Mb)
    and counts: 6,900 boolean interval assertions, 9,600 interval
    assertions, 25,400 clock assertions, 19,100 additive and 19,200
    subtractive octagonal assertions, 100 decision trees and 1,900
    ellipsoidal assertions, involving over 16,000 floating-point
    constants.  This module computes the same census for a saved loop
    invariant, which experiment E4 compares in *shape* against the
    paper. *)

module F = Astree_frontend
module D = Astree_domains

type t = {
  c_bool_assertions : int;      (** x in [0,1] on boolean cells *)
  c_interval_assertions : int;  (** x in [a,b], non-trivial, non-boolean *)
  c_clock_assertions : int;     (** non-trivial v-clock / v+clock components *)
  c_oct_additive : int;         (** a <= x + y <= b *)
  c_oct_subtractive : int;      (** a <= x - y <= b *)
  c_decision_trees : int;       (** live decision-tree branching nodes *)
  c_ellipsoid_assertions : int;
  c_float_constants : int;      (** distinct fp constants in the dump *)
}

let is_trivial_itv (a : Transfer.actx) (c : Cell.t) (i : D.Itv.t) : bool =
  let full = Avalue.top_of_scalar a.Transfer.prog.F.Tast.p_target c.Cell.cty in
  match (i, full) with
  | D.Itv.Bot, _ -> false
  | _ -> D.Itv.subset full i

let census (a : Transfer.actx) (st : Astate.t) : t =
  let bools = ref 0 and itvs = ref 0 and clocks = ref 0 in
  let floats : (float, unit) Hashtbl.t = Hashtbl.create 256 in
  let note_float f =
    if Float.abs f <> Float.infinity && not (Float.is_nan f) then
      Hashtbl.replace floats f ()
  in
  let note_itv (i : D.Itv.t) =
    match i with
    | D.Itv.Float (lo, hi) ->
        note_float lo;
        note_float hi
    | D.Itv.Int (lo, hi) ->
        if lo > min_int then note_float (float_of_int lo);
        if hi < max_int then note_float (float_of_int hi)
    | D.Itv.Bot -> ()
  in
  Env.iter
    (fun id (av : Avalue.t) ->
      let c = Cell.of_id a.Transfer.intern id in
      let i = Avalue.itv av in
      (* every boolean cell carries the assertion x in [0,1] (the paper
         counts 6,900 of them for ~7k boolean variables); numerical
         cells only count when their interval is non-trivial *)
      if F.Ctypes.is_bool (F.Ctypes.Tscalar c.Cell.cty) then begin
        if not (D.Itv.is_bot i) then incr bools
      end
      else if not (is_trivial_itv a c i) then begin
        note_itv i;
        incr itvs
      end;
      if not (D.Itv.is_bot av.D.Clocked.vminus) then begin
        incr clocks;
        note_itv av.D.Clocked.vminus
      end;
      if not (D.Itv.is_bot av.D.Clocked.vplus) then begin
        incr clocks;
        note_itv av.D.Clocked.vplus
      end)
    st.Astate.env;
  let rel = Relstate.census ~note:note_float st.Astate.rel in
  let count k =
    List.fold_left (fun n (k', m) -> if k = k' then n + m else n) 0 rel
  in
  {
    c_bool_assertions = !bools;
    c_interval_assertions = !itvs;
    c_clock_assertions = !clocks;
    c_oct_additive = count "oct_additive";
    c_oct_subtractive = count "oct_subtractive";
    c_decision_trees = count "decision_trees";
    c_ellipsoid_assertions = count "ellipsoid";
    c_float_constants = Hashtbl.length floats;
  }

(** Census of the invariant of the program's outermost loop (the main
    synchronous loop), i.e. the loop with the smallest id in [main]. *)
let main_loop_census (r : Analysis.result) : t option =
  let invs =
    Hashtbl.fold
      (fun id st acc -> (id, st) :: acc)
      r.Analysis.r_actx.Transfer.invariants []
  in
  match List.sort (fun (a, _) (b, _) -> Int.compare a b) invs with
  | (_, st) :: _ -> Some (census r.Analysis.r_actx st)
  | [] -> None

let pp ppf (c : t) =
  Fmt.pf ppf
    "boolean interval assertions: %d@\ninterval assertions: %d@\n\
     clock assertions: %d@\nadditive octagonal assertions: %d@\n\
     subtractive octagonal assertions: %d@\ndecision trees: %d@\n\
     ellipsoidal assertions: %d@\nfloating-point constants: %d"
    c.c_bool_assertions c.c_interval_assertions c.c_clock_assertions
    c.c_oct_additive c.c_oct_subtractive c.c_decision_trees
    c.c_ellipsoid_assertions c.c_float_constants
