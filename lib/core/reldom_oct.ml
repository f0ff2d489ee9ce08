(** The octagon domain over its packs (Sect. 6.2.2, 7.2.1): assignments
    and guards through linear forms, interval bounds pulled back into
    the environment with pack usefulness tracking (Sect. 7.2.2). *)

module F = Astree_frontend
module D = Astree_domains
module O = D.Octagon
open F.Tast
open Reldom

type t = O.t
type pack = Packing.oct_pack

let name = "octagon"
let enabled (cfg : Config.t) = cfg.Config.use_octagons
let packs (pk : Packing.t) = pk.Packing.octs
let pack_id (op : pack) = op.Packing.op_id
let packs_of (pk : Packing.t) v = Packing.packs_of pk.Packing.oct_index v
let pack_vars (op : pack) = op.Packing.op_vars

let add_pack name buf (op : pack) =
  add_i64 buf (Array.length op.Packing.op_vars);
  Array.iter (fun v -> add_str buf (name v)) op.Packing.op_vars

let rename (op : pack) (o : t) =
  if rename_vars ~by:op.Packing.op_vars o.O.pack == o.O.pack then o
  else { o with O.pack = op.Packing.op_vars }

let top (op : pack) = O.top op.Packing.op_vars
let get (r : rel) = r.octs
let set (r : rel) octs = { r with octs }
let join = O.join
let meet = O.meet
let widen = O.widen
let narrow = O.narrow
let subset = O.subset
let equal = O.equal

let writeback c ctx st (vars : var list) =
  List.fold_left
    (fun st v ->
      List.fold_left
        (fun st (op : pack) ->
          match Ptmap.find_opt op.Packing.op_id (c.rel st).octs with
          | None -> st
          | Some o ->
              let k = O.pos o v in
              if O.is_bot o then c.bottom
              else if k < 0 then st
              else
                let lo = O.lower o k and hi = O.upper o k in
                if not (lo > Float.neg_infinity || hi < Float.infinity) then st
                else
                  let cur = c.var_itv ctx st v in
                  let bound =
                    match cur with
                    | D.Itv.Int _ ->
                        D.Itv.int_range
                          (if lo = Float.neg_infinity then min_int
                           else int_of_float (Float.floor lo))
                          (if hi = Float.infinity then max_int
                           else int_of_float (Float.ceil hi))
                    | D.Itv.Float _ -> D.Itv.float_range lo hi
                    | D.Itv.Bot -> D.Itv.Bot
                  in
                  match bound with
                  | D.Itv.Bot -> st
                  | bound ->
                      let refined = D.Itv.meet cur bound in
                      if
                        (not (D.Itv.equal refined cur))
                        && not (D.Itv.is_bot refined)
                      then begin
                        c.useful ctx op.Packing.op_id;
                        c.refine ctx st v refined
                      end
                      else st)
        st
        (packs_of (c.packing ctx) v))
    st vars

let assign c ctx ~pre st _binds x rhs rhs_itv =
  match packs_of (c.packing ctx) x with
  | [] -> st
  | packs ->
      (* the right-hand side is linearized and evaluated before the
         write: [O.assign] meets the octagon's bounds on [x], which are
         still the old ones, with the oracle's *)
      let orc = oracle c ctx pre in
      let form = D.Linearize.linearize orc rhs in
      let octs =
        List.fold_left
          (fun octs (op : pack) ->
            match Ptmap.find_opt op.Packing.op_id octs with
            | None -> octs
            | Some o ->
                let o' = O.copy o in
                (match form with
                | Some form -> O.assign o' orc x form
                | None -> (
                    O.forget o' x;
                    match D.Itv.float_hull rhs_itv with
                    | Some (lo, hi) -> O.set_bounds o' x (lo, hi)
                    | None -> ()));
                Ptmap.add op.Packing.op_id o' octs)
          (c.rel st).octs packs
      in
      writeback c ctx (c.with_rel st (set (c.rel st) octs)) [ x ]

(* Guard with (l cmp r) [truth], through linear forms. *)
let guard c ctx st binds (cond : expr) truth =
  match cond.edesc with
  | Ebinop (((Lt | Gt | Le | Ge | Eq | Ne) as op), l, r)
    when not (Ptmap.is_empty (c.rel st).octs) -> (
      let pk = c.packing ctx in
      let op = if truth then op else negate_cmp op in
      let orc = oracle c ctx st in
      let l = c.resolve binds l and r = c.resolve binds r in
      match (D.Linearize.linearize orc l, D.Linearize.linearize orc r) with
      | Some fl, Some fr ->
          (* all forms are applied to ONE copy of each touched pack
             octagon ([guard_le_zero] restores closure incrementally
             between them), so an equality — two opposite inequalities —
             costs one copy per pack instead of a copy-close-copy chain *)
          let apply_le_zero st forms =
            let vars =
              List.concat_map D.Linear_form.vars forms
              |> List.sort_uniq Var.compare
            in
            let touched =
              List.concat_map (packs_of pk) vars
              |> List.sort_uniq (fun (x : pack) y ->
                     Int.compare x.Packing.op_id y.Packing.op_id)
            in
            let octs =
              List.fold_left
                (fun octs (op_ : pack) ->
                  match Ptmap.find_opt op_.Packing.op_id octs with
                  | None -> octs
                  | Some o ->
                      let o' = O.copy o in
                      List.iter (fun f -> O.guard_le_zero o' orc f) forms;
                      Ptmap.add op_.Packing.op_id o' octs)
                (c.rel st).octs touched
            in
            c.with_rel st (set (c.rel st) octs)
          in
          (* over the integers a < b is a - b + 1 <= 0: recover the unit
             the real-field octagon would lose on strict comparisons *)
          let both_int =
            F.Ctypes.is_integer (F.Ctypes.Tscalar l.ety)
            && F.Ctypes.is_integer (F.Ctypes.Tscalar r.ety)
          in
          let one = D.Linear_form.of_interval 1.0 1.0 in
          let strictify f = if both_int then D.Linear_form.add f one else f in
          let st =
            match op with
            | Le -> apply_le_zero st [ D.Linear_form.sub fl fr ]
            | Lt -> apply_le_zero st [ strictify (D.Linear_form.sub fl fr) ]
            | Ge -> apply_le_zero st [ D.Linear_form.sub fr fl ]
            | Gt -> apply_le_zero st [ strictify (D.Linear_form.sub fr fl) ]
            | Eq ->
                apply_le_zero st
                  [ D.Linear_form.sub fl fr; D.Linear_form.sub fr fl ]
            | _ -> st
          in
          (* pull refined bounds back into the environment, for every
             variable of the touched packs: the closure typically improves
             other pack members than those occurring in the condition (the
             paper's rate-limiter example bounds L from the guard on R) *)
          let guard_vars = D.Linear_form.vars fl @ D.Linear_form.vars fr in
          let pack_vars =
            List.concat_map
              (fun v ->
                List.concat_map
                  (fun (op_ : pack) -> Array.to_list op_.Packing.op_vars)
                  (packs_of pk v))
              guard_vars
          in
          writeback c ctx st (List.sort_uniq Var.compare (guard_vars @ pack_vars))
      | _ -> st)
  | _ -> st

(* Two variables sharing a pack: the check ran under octagon constraints. *)
let relates (pk : Packing.t) (vars : var list) =
  match vars with
  | [] | [ _ ] -> false
  | vs ->
      List.exists
        (fun (op : pack) ->
          List.length (List.filter (Packing.op_mem op) vs) >= 2)
        (List.concat_map (packs_of pk) vs)

(** Do the octagons of [st] prove [u = w]?  (The ellipsoid reduction
    asks.) *)
let proves_equal c ctx st u w =
  List.exists
    (fun (op : pack) ->
      match Ptmap.find_opt op.Packing.op_id (c.rel st).octs with
      | Some o -> (
          match O.get_diff_bounds o u w with
          | Some (lo, hi) -> lo = 0.0 && hi = 0.0
          | None -> false)
      | None -> false)
    (packs_of (c.packing ctx) u)

let census note (o : t) =
  Array.iter
    (fun v ->
      match O.get_bounds o v with
      | Some (lo, hi) ->
          note lo;
          note hi
      | None -> ())
    o.O.pack;
  let sums, diffs = O.count_constraints o in
  [ ("oct_additive", sums); ("oct_subtractive", diffs) ]

(* Nothing of an empty octagon but its size is written: its matrix and
   closure state are leftovers that [equal] ignores. *)
let digest buf (o : t) =
  let { O.pack; bot; n2; m; closure } = o in
  add_i64 buf (Array.length pack);
  Buffer.add_char buf (if bot then '1' else '0');
  if not bot then begin
    (match closure with
    | O.Closed -> Buffer.add_char buf 'C'
    | O.Unclosed -> Buffer.add_char buf 'U'
    | O.Dirty mask ->
        Buffer.add_char buf 'D';
        add_i64 buf mask);
    add_i64 buf n2;
    Array.iter (add_float buf) m
  end

let same (x : t) (y : t) =
  x == y
  ||
  let { O.pack; bot; n2; m; closure } = x in
  Array.length pack = Array.length y.O.pack
  && bot = y.O.bot
  && (bot
     || (match (closure, y.O.closure) with
        | O.Closed, O.Closed | O.Unclosed, O.Unclosed -> true
        | O.Dirty a, O.Dirty b -> a = b
        | _ -> false)
        && n2 = y.O.n2 && same_floats m y.O.m)

let pp ppf pid o =
  if O.has_relational_info o then Fmt.pf ppf "octagon #%d: %a@." pid O.pp o
