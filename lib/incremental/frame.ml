(** Summary frames (DESIGN.md §8): the part of the abstract state one
    memoized call can read or write.

    The frame of a call to [f] holds the cells of every variable the
    transitive body of [f] reads, writes or tests ({!F.Footprint}: its
    locals, parameters and call destinations included) and of the
    variables of its by-reference bindings, closed under relational
    pack membership: a pack with one frame variable is in the frame,
    and so are all its variables.  Everything outside is provably
    untouched by the call — the analysis of the body neither reads it
    nor changes it — with two exceptions, which widen the frame:

    - [__astree_wait_for_clock] ticks every cell, so a callee that can
      reach it frames the whole state;
    - the floating iteration perturbation (Sect. 7.1.4) enlarges every
      float cell of a loop invariant, so a callee with a loop frames
      every float cell.

    Cells, packs and loops are listed in a program-stable order (by
    {!Fingerprint.var_name} and cell path, pack identity, loop name), so
    a summary stored by frame position replays in any program whose
    frame has the same identity ({!t.fr_id}, part of every key). *)

module F = Astree_frontend
module C = Astree_core
open F.Tast

(* One relational domain's part of a frame, over the whole [rel]
   record so that the domains' differing element types stay inside. *)
type rel_part = {
  rp_domain : string;  (** the domain's [Reldom.S.name] *)
  rp_ids : int array;  (** pack ids, frame order *)
  rp_digest : Buffer.t -> C.Relstate.t -> unit;
      (** the MD5 of each frame pack's element, in frame order *)
  rp_restrict : entry:C.Relstate.t -> C.Relstate.t -> C.Relstate.t -> C.Relstate.t;
      (** [rp_restrict ~entry st acc]: the packs of [st] that are not
          physically those of [entry], by frame position, added to
          [acc] *)
  rp_overlay : C.Relstate.t -> C.Relstate.t -> C.Relstate.t;
      (** [rp_overlay framed st]: [st] with the framed packs laid over
          it, renamed to this program's variables *)
}

type t = {
  fr_id : string;  (** digest of the frame's identity *)
  fr_cells : int array;  (** cell ids, frame order *)
  fr_cell_pos : (int, int) Hashtbl.t;  (** cell id -> position *)
  fr_rel : rel_part list;  (** in {!C.Relstate.domains} order *)
  fr_octs : int array;  (** octagon pack ids, frame order *)
  fr_loops : int array;  (** loop ids, frame order *)
}

(* Facts of a transitive body: its footprint, whether it can reach the
   clock tick, and its loops. *)
type reach = { r_vars : VarSet.t; r_wait : bool; r_loops : int list }

type ctx = {
  cx_fps : Fingerprint.t;
  cx_actx : C.Transfer.actx;
  cx_reach : (string, reach) Hashtbl.t;
  cx_frames : (string, t) Hashtbl.t;
  cx_all : VarSet.t Lazy.t;  (** every variable of the program *)
}

let local_facts (fd : fundef) : reach =
  let reads, writes = F.Footprint.of_fundef ~keep:(fun _ -> true) fd in
  let wait = ref false and loops = ref [] in
  iter_stmts
    (fun s ->
      match s.sdesc with
      | Swait -> wait := true
      | Swhile (li, _, _) -> loops := li.loop_id :: !loops
      | _ -> ())
    fd.fd_body;
  { r_vars = VarSet.union reads writes; r_wait = !wait; r_loops = !loops }

let reach (cx : ctx) (fname : string) : reach =
  match Hashtbl.find_opt cx.cx_reach fname with
  | Some r -> r
  | None ->
      let p = cx.cx_actx.C.Transfer.prog in
      let r =
        List.fold_left
          (fun acc g ->
            match find_fun p g with
            | None -> acc
            | Some fd ->
                let l = local_facts fd in
                {
                  r_vars = VarSet.union l.r_vars acc.r_vars;
                  r_wait = l.r_wait || acc.r_wait;
                  r_loops = l.r_loops @ acc.r_loops;
                })
          { r_vars = VarSet.empty; r_wait = false; r_loops = [] }
          (F.Footprint.reachable p fname)
      in
      Hashtbl.replace cx.cx_reach fname r;
      r

let ctx (fps : Fingerprint.t) (a : C.Transfer.actx) : ctx =
  let p = a.C.Transfer.prog in
  {
    cx_fps = fps;
    cx_actx = a;
    cx_reach = Hashtbl.create 64;
    cx_frames = Hashtbl.create 64;
    cx_all =
      lazy
        (List.fold_left
           (fun acc (_, fd) -> VarSet.union (local_facts fd).r_vars acc)
           (VarSet.of_list (List.map fst p.p_globals))
           p.p_funs);
  }

let cells_of (a : C.Transfer.actx) (v : var) : C.Cell.t list =
  C.Cell.cells_of_var ~structs:a.C.Transfer.prog.p_structs
    ~expand_array_max:a.C.Transfer.cfg.C.Config.expand_array_max v

let path_string (path : C.Cell.step list) : string =
  String.concat ""
    (List.map
       (function
         | C.Cell.Sfield f -> "." ^ f
         | C.Cell.Selem i -> Printf.sprintf "[%d]" i
         | C.Cell.Sall -> "[*]")
       path)

(* [x] is physically the bound value *)
let is_phys x = function Some y -> y == x | None -> false

(* The frame's relational part for one domain: the packs with a frame
   variable, sorted by identity, whose identities go into [id]. *)
let rel_part (cx : ctx) (vars : VarSet.t) (id : Buffer.t)
    (module M : C.Reldom.S) : rel_part =
  let name = Fingerprint.var_name cx.cx_fps in
  let packs =
    List.filter
      (fun pk -> Array.exists (fun v -> VarSet.mem v vars) (M.pack_vars pk))
      (M.packs cx.cx_actx.C.Transfer.packs)
    |> List.map (fun pk ->
           let b = Buffer.create 64 in
           M.add_pack name b pk;
           (Buffer.contents b, pk))
    |> List.sort (fun (x, _) (y, _) -> String.compare x y)
  in
  C.Reldom.add_str id M.name;
  C.Reldom.add_i64 id (List.length packs);
  List.iter (fun (s, _) -> C.Reldom.add_str id s) packs;
  let packs = Array.of_list (List.map snd packs) in
  let ids = Array.map M.pack_id packs in
  (* the MD5 of each pack's element, kept for the last element digested
     at that position: consecutive calls mostly pass the same, unchanged
     packs (elements are never mutated once in a map, Octagon.copy) *)
  let last = Array.make (Array.length ids) None in
  let elt_digest i x =
    match last.(i) with
    | Some (y, d) when y == x -> d
    | _ ->
        let b = Buffer.create 1024 in
        M.digest b x;
        let d = Digest.string (Buffer.contents b) in
        last.(i) <- Some (x, d);
        d
  in
  {
    rp_domain = M.name;
    rp_ids = ids;
    rp_digest =
      (fun buf rel ->
        let m = M.get rel in
        Array.iteri
          (fun i pid ->
            match C.Ptmap.find_opt pid m with
            | None -> Buffer.add_char buf '-'
            | Some x ->
                Buffer.add_char buf '+';
                Buffer.add_string buf (elt_digest i x))
          ids);
    rp_restrict =
      (fun ~entry rel acc ->
        let m0 = M.get entry and m = M.get rel in
        if m == m0 then acc
        else
          let out = ref (M.get acc) in
          Array.iteri
            (fun i pid ->
              match C.Ptmap.find_opt pid m with
              | Some x when not (is_phys x (C.Ptmap.find_opt pid m0)) ->
                  out := C.Ptmap.add i x !out
              | _ -> ())
            ids;
          M.set acc !out);
    rp_overlay =
      (fun framed rel ->
        let fm = M.get framed in
        if C.Ptmap.is_empty fm then rel
        else
          M.set rel
            (C.Ptmap.fold
               (fun i x m -> C.Ptmap.add ids.(i) (M.rename packs.(i) x) m)
               fm (M.get rel)));
  }

(* Close [vars] under pack membership in every domain. *)
let rec close (a : C.Transfer.actx) (vars : VarSet.t) : VarSet.t =
  let more =
    VarSet.fold
      (fun v acc ->
        List.fold_left
          (fun acc (module M : C.Reldom.S) ->
            List.fold_left
              (fun acc pk -> Array.fold_right VarSet.add (M.pack_vars pk) acc)
              acc
              (M.packs_of a.C.Transfer.packs v))
          acc C.Relstate.domains)
      vars vars
  in
  if VarSet.cardinal more = VarSet.cardinal vars then vars else close a more

let make (cx : ctx) (fname : string) (extra : VarSet.t) : t =
  let a = cx.cx_actx in
  let r = reach cx fname in
  let vars =
    if r.r_wait then Lazy.force cx.cx_all
    else
      let vars = VarSet.union r.r_vars extra in
      if r.r_loops <> [] && a.C.Transfer.cfg.C.Config.float_iteration_epsilon > 0.
      then
        VarSet.union vars
          (VarSet.filter
             (fun v ->
               List.exists
                 (fun (c : C.Cell.t) ->
                   match c.C.Cell.cty with F.Ctypes.Tfloat _ -> true | _ -> false)
                 (cells_of a v))
             (Lazy.force cx.cx_all))
      else vars
  in
  let vars = close a vars in
  let name = Fingerprint.var_name cx.cx_fps in
  let cells =
    VarSet.fold
      (fun v acc ->
        List.map
          (fun (c : C.Cell.t) ->
            (name v ^ "\x00" ^ path_string c.C.Cell.path, c))
          (cells_of a v)
        @ acc)
      vars []
    |> List.sort (fun (x, _) (y, _) -> String.compare x y)
  in
  let id = Buffer.create 4096 in
  C.Reldom.add_i64 id (List.length cells);
  List.iter
    (fun (s, (c : C.Cell.t)) ->
      C.Reldom.add_str id s;
      C.Reldom.add_str id (F.Ctypes.to_string (F.Ctypes.Tscalar c.C.Cell.cty));
      Buffer.add_char id (if c.C.Cell.weak then 'w' else 's'))
    cells;
  let fr_cells =
    Array.of_list (List.map (fun (_, c) -> C.Cell.intern a.C.Transfer.intern c) cells)
  in
  let fr_cell_pos = Hashtbl.create (Array.length fr_cells) in
  Array.iteri (fun i cid -> Hashtbl.replace fr_cell_pos cid i) fr_cells;
  let fr_rel = List.map (rel_part cx vars id) C.Relstate.domains in
  let fr_octs =
    (List.find (fun rp -> rp.rp_domain = C.Reldom_oct.name) fr_rel).rp_ids
  in
  let loops =
    List.map (fun id -> (Fingerprint.loop_name cx.cx_fps id, id)) r.r_loops
    |> List.sort compare
  in
  C.Reldom.add_i64 id (List.length loops);
  List.iter (fun (s, _) -> C.Reldom.add_str id s) loops;
  {
    fr_id = Digest.string (Buffer.contents id);
    fr_cells;
    fr_cell_pos;
    fr_rel;
    fr_octs;
    fr_loops = Array.of_list (List.map snd loops);
  }

let whole (cx : ctx) : t = make cx "" (Lazy.force cx.cx_all)

let of_call (cx : ctx) ~(fname : string) (binds : C.Transfer.binds) : t =
  let extra =
    VarMap.fold (fun _ lv acc -> lval_vars lv acc) binds VarSet.empty
  in
  let key =
    if VarSet.is_empty extra then fname
    else
      String.concat ","
        (fname :: List.map (fun v -> string_of_int v.v_id) (VarSet.elements extra))
  in
  match Hashtbl.find_opt cx.cx_frames key with
  | Some fr -> fr
  | None ->
      let fr = make cx fname extra in
      Hashtbl.replace cx.cx_frames key fr;
      fr

(* ------------------------------------------------------------------ *)
(* Keys                                                                 *)
(* ------------------------------------------------------------------ *)

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
  let buf = Buffer.create 1024 in
  Buffer.add_string buf fr.fr_id;
  Buffer.add_char buf (if st.C.Astate.bot then '1' else '0');
  C.Reldom.add_itv buf st.C.Astate.clock;
  Array.iter
    (fun cid ->
      match C.Env.find st.C.Astate.env cid with
      | None -> Buffer.add_char buf '-'
      | Some v ->
          Buffer.add_char buf '+';
          add_avalue buf v)
    fr.fr_cells;
  List.iter (fun rp -> rp.rp_digest buf st.C.Astate.rel) fr.fr_rel;
  C.Reldom.add_i64 buf (VarMap.cardinal binds);
  VarMap.iter
    (fun v lv ->
      C.Reldom.add_str buf (Fingerprint.var_name cx.cx_fps v);
      Fingerprint.add_lval cx.cx_fps buf lv;
      Fingerprint.add_lval_locs cx.cx_fps buf lv)
    binds;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Framed states                                                        *)
(* ------------------------------------------------------------------ *)

(** The frame part of [st] that differs from [entry]: the cells and
    packs of [st] that are not physically those of [entry], keyed by
    frame position, with [st]'s bottom flag and clock.  Everything else
    of [st] is [entry]'s own. *)
let restrict (fr : t) ~(entry : C.Astate.t) (st : C.Astate.t) : C.Astate.t =
  if st.C.Astate.bot then C.Astate.bottom
  else
    let env =
      if st.C.Astate.env == entry.C.Astate.env then C.Ptmap.empty
      else begin
        let m = ref C.Ptmap.empty in
        Array.iteri
          (fun i cid ->
            match C.Env.find st.C.Astate.env cid with
            | Some v when not (is_phys v (C.Env.find entry.C.Astate.env cid)) ->
                m := C.Ptmap.add i v !m
            | _ -> ())
          fr.fr_cells;
        !m
      end
    in
    C.Astate.make ~env:(C.Env.Shared env)
      ~rel:
        (List.fold_left
           (fun acc rp -> rp.rp_restrict ~entry:entry.C.Astate.rel st.C.Astate.rel acc)
           C.Relstate.empty fr.fr_rel)
      ~clock:st.C.Astate.clock

(** Inverse of {!restrict}: [entry] with the framed cells and packs laid
    over it.  Cells are never removed by the analysis, so a frame cell
    the framed state lacks holds [entry]'s value. *)
let overlay (fr : t) (framed : C.Astate.t) (entry : C.Astate.t) : C.Astate.t =
  if framed.C.Astate.bot then C.Astate.bottom
  else
    let env =
      match framed.C.Astate.env with
      | C.Env.Shared m ->
          C.Ptmap.fold
            (fun i v env -> C.Env.set env fr.fr_cells.(i) v)
            m entry.C.Astate.env
      | C.Env.Naive _ -> entry.C.Astate.env
    in
    C.Astate.make ~env
      ~rel:
        (List.fold_left
           (fun rel rp -> rp.rp_overlay framed.C.Astate.rel rel)
           entry.C.Astate.rel fr.fr_rel)
      ~clock:framed.C.Astate.clock

(* ------------------------------------------------------------------ *)
(* Positions                                                            *)
(* ------------------------------------------------------------------ *)

let position (a : int array) (x : int) : int option =
  let rec find i =
    if i = Array.length a then None
    else if a.(i) = x then Some i
    else find (i + 1)
  in
  find 0

let cells (fr : t) = Array.copy fr.fr_cells
let cell_pos (fr : t) (cid : int) = Hashtbl.find_opt fr.fr_cell_pos cid
let cell_at (fr : t) (i : int) = fr.fr_cells.(i)
let loop_pos (fr : t) = position fr.fr_loops
let loop_at (fr : t) (i : int) = fr.fr_loops.(i)
let oct_pos (fr : t) = position fr.fr_octs
let oct_at (fr : t) (i : int) = fr.fr_octs.(i)
