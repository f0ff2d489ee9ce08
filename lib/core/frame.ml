(** Call frames (DESIGN.md §6, §8): the part of the abstract state one
    call can read or write.

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

    With program-stable names, cells, packs and loops are listed in a
    program-stable order (by variable name and cell path, pack
    identity, loop name), so a summary stored by frame position replays
    in any program whose frame has the same identity ({!id}, part of
    every store key).  Without names they are listed by id.  Either way
    a frame only looks its cells up: the prepared program numbered
    them all ([Transfer.prepare]). *)

module F = Astree_frontend
open F.Tast

type names = { var_name : var -> string; loop_name : int -> string }

(* One relational domain's part of a frame: the domain, and its frame
   packs in frame order.  Plain data (no closures), so a frame stays
   small; [last] keeps the MD5 of the last element digested at each
   position, allocated on the first digest (keys only). *)
type rel_part =
  | Rel : {
      dom : (module Reldom.S with type t = 'e and type pack = 'p);
      ids : int array;  (** pack ids *)
      by_id : int array Lazy.t;  (** positions in pack id order *)
      packs : 'p array;
      mutable last : ('e * string) option array;
    }
      -> rel_part

type t = {
  fr_id : string option;  (** digest of the frame's identity, with names *)
  fr_cells : int array;  (** cell ids, frame order *)
  fr_by_id : int array Lazy.t;  (** positions in cell id order *)
  fr_rel : rel_part list;  (** in {!Relstate.domains} order *)
  fr_octs : int array;  (** octagon pack ids, frame order *)
  fr_loops : int array;  (** loop ids, frame order *)
}

(* Facts of a transitive body: its footprint, whether it can reach the
   clock tick, and its loops.  A body that reaches the tick frames the
   whole state, so its footprint is only taken when asked for. *)
type reach = { r_vars : VarSet.t Lazy.t; r_wait : bool; r_loops : int list }

(* What frames need of one body besides its footprint: whether it
   reaches the clock tick, its loops and its callees in statement order.
   Footprints are not kept: a frame's is the union of its bodies'. *)
type local = { l_fd : fundef; l_wait : bool; l_loops : int list; l_calls : string list }

(* What the frames of one program share across its analyses
   ([Transfer.prepared]): the program, its configuration, packing and
   cell numbering, the body facts, and the named frames, each without
   digests. *)
type shared = {
  sh_prog : program;
  sh_funs : (string, fundef) Hashtbl.t;
      (** the program's functions by name, first definition first *)
  sh_cfg : Config.t;
  sh_packs : Packing.t;
  sh_intern : Cell.interner;
  sh_all : VarSet.t Lazy.t;  (** every variable of the program *)
  sh_local : (string, local) Hashtbl.t;  (** by function, computed once *)
  sh_named : (string, t) Hashtbl.t;
  mutable sh_names : names option;  (** the names [sh_named] was built with *)
}

type ctx = {
  cx_names : names option;
  cx_shared : shared;
  cx_reach : (string, reach) Hashtbl.t;
  cx_frames : (string, t) Hashtbl.t;
}

let footprint (fd : fundef) : VarSet.t =
  let reads, writes = F.Footprint.of_fundef ~keep:(fun _ -> true) fd in
  VarSet.union reads writes

let local (cx : ctx) (fname : string) (fd : fundef) : local =
  match Hashtbl.find_opt cx.cx_shared.sh_local fname with
  | Some l when l.l_fd == fd -> l
  | _ ->
      let wait = ref false and loops = ref [] and calls = ref [] in
      iter_stmts
        (fun s ->
          match s.sdesc with
          | Swait -> wait := true
          | Swhile (li, _, _) -> loops := li.loop_id :: !loops
          | Scall (_, callee, _) -> calls := callee :: !calls
          | _ -> ())
        fd.fd_body;
      let l =
        { l_fd = fd; l_wait = !wait; l_loops = !loops; l_calls = List.rev !calls }
      in
      Hashtbl.replace cx.cx_shared.sh_local fname l;
      l

(* The facts of [fname]'s transitive body: every function reachable
   from it through calls, each once. *)
let reach (cx : ctx) (fname : string) : reach =
  match Hashtbl.find_opt cx.cx_reach fname with
  | Some r -> r
  | None ->
      let seen = Hashtbl.create 8 in
      let rec visit ((fds, wait, loops) as acc) g =
        if Hashtbl.mem seen g then acc
        else begin
          Hashtbl.replace seen g ();
          match Hashtbl.find_opt cx.cx_shared.sh_funs g with
          | None -> acc
          | Some fd ->
              let l = local cx g fd in
              List.fold_left visit
                (fd :: fds, l.l_wait || wait, l.l_loops @ loops)
                l.l_calls
        end
      in
      let fds, wait, loops = visit ([], false, []) fname in
      let r =
        {
          r_vars =
            lazy
              (List.fold_left
                 (fun acc fd -> VarSet.union (footprint fd) acc)
                 VarSet.empty fds);
          r_wait = wait;
          r_loops = loops;
        }
      in
      Hashtbl.replace cx.cx_reach fname r;
      r

let shared (p : program) (funs : (string, fundef) Hashtbl.t) (cfg : Config.t)
    (packs : Packing.t) (intern : Cell.interner) : shared =
  {
    sh_prog = p;
    sh_funs = funs;
    sh_cfg = cfg;
    sh_packs = packs;
    sh_intern = intern;
    sh_all =
      lazy
        (List.fold_left
           (fun acc (_, fd) -> VarSet.union (footprint fd) acc)
           (VarSet.of_list (List.map fst p.p_globals))
           p.p_funs);
    sh_local = Hashtbl.create 64;
    sh_named = Hashtbl.create 64;
    sh_names = None;
  }

(* [x] is physically the bound value *)
let is_phys x = function Some y -> y == x | None -> false

(* The named frames [shared] keeps were built with its names: a context
   with other names drops them. *)
let ctx ?names (shared : shared) : ctx =
  (match names with
  | Some nm when not (is_phys nm shared.sh_names) ->
      Hashtbl.reset shared.sh_named;
      shared.sh_names <- Some nm
  | _ -> ());
  {
    cx_names = names;
    cx_shared = shared;
    cx_reach = Hashtbl.create 64;
    cx_frames = Hashtbl.create 64;
  }

let names (cx : ctx) = cx.cx_names

let cells_of (cx : ctx) (v : var) : Cell.t list =
  let sh = cx.cx_shared in
  Cell.cells_of_var ~structs:sh.sh_prog.p_structs
    ~expand_array_max:sh.sh_cfg.Config.expand_array_max v

let path_string (path : Cell.step list) : string =
  String.concat ""
    (List.map
       (function
         | Cell.Sfield f -> "." ^ f
         | Cell.Selem i -> "[" ^ string_of_int i ^ "]"
         | Cell.Sall -> "[*]")
       path)

(* The positions of [ids] in increasing id order. *)
let id_order (ids : int array) : int array =
  let p = Array.init (Array.length ids) Fun.id in
  Array.sort (fun i j -> Int.compare ids.(i) ids.(j)) p;
  p

(* The position of [id] in [ids], [p] their positions in id order. *)
let find_pos (ids : int array) (p : int array Lazy.t) (id : int) : int option =
  let p = Lazy.force p in
  let rec search lo hi =
    let mid = (lo + hi) / 2 in
    if lo >= hi then None
    else if ids.(p.(mid)) = id then Some p.(mid)
    else if ids.(p.(mid)) < id then search (mid + 1) hi
    else search lo mid
  in
  search 0 (Array.length p)

(* The frame's relational part for one domain: the packs with a frame
   variable, in frame order — by identity with names, whose identities
   then go into [id], else by pack id. *)
let rel_part (cx : ctx) (vars : VarSet.t) (id : Buffer.t option)
    (module M : Reldom.S) : rel_part =
  let packs =
    let by_id = Hashtbl.create 16 in
    VarSet.iter
      (fun v ->
        List.iter
          (fun pk -> Hashtbl.replace by_id (M.pack_id pk) pk)
          (M.packs_of cx.cx_shared.sh_packs v))
      vars;
    Hashtbl.fold (fun _ pk acc -> pk :: acc) by_id []
  in
  let packs =
    match (cx.cx_names, id) with
    | Some nm, Some id ->
        let packs =
          List.map
            (fun pk ->
              let b = Buffer.create 64 in
              M.add_pack nm.var_name b pk;
              (Buffer.contents b, pk))
            packs
          |> List.sort (fun (x, _) (y, _) -> String.compare x y)
        in
        Reldom.add_str id M.name;
        Reldom.add_i64 id (List.length packs);
        List.iter (fun (s, _) -> Reldom.add_str id s) packs;
        List.map snd packs
    | _ ->
        List.sort (fun x y -> Int.compare (M.pack_id x) (M.pack_id y)) packs
  in
  let packs = Array.of_list packs in
  let ids = Array.map M.pack_id packs in
  Rel
    {
      dom = (module M : Reldom.S with type t = M.t and type pack = M.pack);
      ids;
      by_id = lazy (id_order ids);
      packs;
      last = [||];
    }

let rel_ids (Rel r) = r.ids

(* Do two states carry the same element ([Reldom.S.same]) in every frame
   pack? *)
let rel_same (Rel r) (r0 : Relstate.t) (r1 : Relstate.t) : bool =
  let module M = (val r.dom) in
  let m0 = M.get r0 and m1 = M.get r1 in
  m0 == m1
  || Array.for_all
       (fun pid ->
         match (Ptmap.find_opt pid m0, Ptmap.find_opt pid m1) with
         | None, None -> true
         | Some x, Some y -> M.same x y
         | _ -> false)
       r.ids

(* The frame packs of [rel], by pack id, added to [acc]. *)
let rel_keep (Rel r) (rel : Relstate.t) (acc : Relstate.t) : Relstate.t =
  let module M = (val r.dom) in
  let m = M.get rel in
  M.set acc
    (Array.fold_left
       (fun out pid ->
         match Ptmap.find_opt pid m with
         | Some x -> Ptmap.add pid x out
         | None -> out)
       Ptmap.empty r.ids)

(* where each pack element is encoded before its MD5: one buffer keeps
   its capacity across the run's digests *)
let pack_buf = Buffer.create 1024

(* The MD5 of each frame pack's element, in frame order, kept for the
   last element digested at that position: consecutive calls mostly pass
   the same, unchanged packs (elements are never mutated once in a map,
   Octagon.copy).  An element [same] as the kept one has the same
   digest ([same] compares every field the encoding writes): loop-head
   joins hand in new but equal elements at every iterate.  The position
   then keeps the newer element, which the next call is likelier to
   pass again. *)
let rel_digest (Rel r) (buf : Buffer.t) (rel : Relstate.t) : unit =
  let module M = (val r.dom) in
  if Array.length r.last <> Array.length r.ids then
    r.last <- Array.make (Array.length r.ids) None;
  let m = M.get rel in
  Array.iteri
    (fun i pid ->
      match Ptmap.find_opt pid m with
      | None -> Buffer.add_char buf '-'
      | Some x ->
          Buffer.add_char buf '+';
          let d =
            match r.last.(i) with
            | Some (y, d) when y == x -> d
            | Some (y, d) when M.same y x ->
                r.last.(i) <- Some (x, d);
                d
            | _ ->
                let b = pack_buf in
                Buffer.clear b;
                M.digest b x;
                let d = Digest.string (Buffer.contents b) in
                r.last.(i) <- Some (x, d);
                d
          in
          Buffer.add_string buf d)
    r.ids

(* The bindings of [diff] keyed by the position of their id in [ids]
   ([p] as in {!find_pos}); [Exit] when an id is not in [ids]. *)
let by_position (ids : int array) (p : int array Lazy.t)
    (diff : (int * 'a) list) : 'a Ptmap.t =
  List.fold_left
    (fun m (id, x) ->
      match find_pos ids p id with
      | Some i -> Ptmap.add i x m
      | None -> raise Exit)
    Ptmap.empty diff

(* [rel_restrict ~entry rel acc]: the packs of [rel] that are not
   physically those of [entry], by frame position, added to [acc];
   [Exit] when one is outside the frame. *)
let rel_restrict (Rel r) ~(entry : Relstate.t) (rel : Relstate.t)
    (acc : Relstate.t) : Relstate.t =
  let module M = (val r.dom) in
  let m0 = M.get entry and m = M.get rel in
  if m == m0 then acc
  else M.set acc (by_position r.ids r.by_id (Ptmap.diff ~base:m0 m))

(* [rel_overlay framed rel]: [rel] with the framed packs laid over it,
   renamed to this program's variables. *)
let rel_overlay (Rel r) (framed : Relstate.t) (rel : Relstate.t) : Relstate.t =
  let module M = (val r.dom) in
  let fm = M.get framed in
  if Ptmap.is_empty fm then rel
  else
    M.set rel
      (Ptmap.fold
         (fun i x m -> Ptmap.add r.ids.(i) (M.rename r.packs.(i) x) m)
         fm (M.get rel))

(* Close [vars] under pack membership in every domain: the packs of each
   variable are visited once, those of a variable a pack added too. *)
let close (packs : Packing.t) (vars : VarSet.t) : VarSet.t =
  let acc = ref vars in
  let rec visit v =
    List.iter
      (fun (module M : Reldom.S) ->
        List.iter
          (fun pk ->
            Array.iter
              (fun w ->
                if not (VarSet.mem w !acc) then begin
                  acc := VarSet.add w !acc;
                  visit w
                end)
              (M.pack_vars pk))
          (M.packs_of packs v))
      Relstate.domains
  in
  VarSet.iter visit vars;
  !acc

(* The cells of [vars] as (variable name, path string, cell), sorted by
   [name ^ "\x00" ^ path] without joining the strings: names hold no
   NUL, so comparing names, then paths, orders them the same way. *)
let named_cells (cx : ctx) (nm : names) (vars : VarSet.t) :
    (string * string * Cell.t) list =
  VarSet.fold
    (fun v acc ->
      let name = nm.var_name v in
      List.map (fun (c : Cell.t) -> (name, path_string c.Cell.path, c)) (cells_of cx v)
      @ acc)
    vars []
  |> List.stable_sort (fun (n1, p1, _) (n2, p2, _) ->
         let c = String.compare n1 n2 in
         if c <> 0 then c else String.compare p1 p2)

let make (cx : ctx) (fname : string) (extra : VarSet.t) : t =
  let sh = cx.cx_shared in
  let r = reach cx fname in
  let vars =
    if r.r_wait then Lazy.force sh.sh_all
    else
      let vars = VarSet.union (Lazy.force r.r_vars) extra in
      if r.r_loops <> [] && sh.sh_cfg.Config.float_iteration_epsilon > 0. then
        VarSet.union vars
          (VarSet.filter
             (fun v ->
               List.exists
                 (fun (c : Cell.t) ->
                   match c.Cell.cty with F.Ctypes.Tfloat _ -> true | _ -> false)
                 (cells_of cx v))
             (Lazy.force sh.sh_all))
      else vars
  in
  let vars = close sh.sh_packs vars in
  let fr_id, fr_cells, fr_rel, loops =
    match cx.cx_names with
    | Some nm ->
        let cells = named_cells cx nm vars in
        let id = Buffer.create 4096 in
        Reldom.add_i64 id (List.length cells);
        List.iter
          (fun (name, path, (c : Cell.t)) ->
            (* the cell's name is [name ^ "\x00" ^ path] *)
            Reldom.add_i64 id (String.length name + 1 + String.length path);
            Buffer.add_string id name;
            Buffer.add_char id '\x00';
            Buffer.add_string id path;
            Reldom.add_str id (F.Ctypes.scalar_name c.Cell.cty);
            Buffer.add_char id (if c.Cell.weak then 'w' else 's'))
          cells;
        let fr_cells =
          Array.of_list
            (List.map (fun (_, _, c) -> Cell.lookup sh.sh_intern c) cells)
        in
        let fr_rel = List.map (rel_part cx vars (Some id)) Relstate.domains in
        let loops =
          List.map (fun l -> (nm.loop_name l, l)) r.r_loops
          |> List.sort compare |> List.map snd
        in
        Reldom.add_i64 id (List.length loops);
        List.iter (fun l -> Reldom.add_str id (nm.loop_name l)) loops;
        (Some (Digest.string (Buffer.contents id)), fr_cells, fr_rel, loops)
    | None ->
        let cells =
          VarSet.fold
            (fun v acc ->
              List.fold_left
                (fun acc c -> Cell.lookup sh.sh_intern c :: acc)
                acc (cells_of cx v))
            vars []
        in
        ( None,
          Array.of_list (List.sort_uniq Int.compare cells),
          List.map (rel_part cx vars None) Relstate.domains,
          List.sort_uniq Int.compare r.r_loops )
  in
  {
    fr_id;
    fr_cells;
    fr_by_id = lazy (id_order fr_cells);
    fr_rel;
    fr_octs =
      rel_ids
        (List.find
           (fun (Rel r) ->
             let module M = (val r.dom) in
             M.name = Reldom_oct.name)
           fr_rel);
    fr_loops = Array.of_list loops;
  }

let whole (cx : ctx) : t = make cx "" (Lazy.force cx.cx_shared.sh_all)

(* [fr] without the digests a run kept in it *)
let undigested (fr : t) : t =
  { fr with fr_rel = List.map (fun (Rel r) -> Rel { r with last = [||] }) fr.fr_rel }

let of_call (cx : ctx) ~(fname : string) (binds : Reldom.binds) : t =
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
      let sh = cx.cx_shared in
      let fr =
        match cx.cx_names with
        | None -> make cx fname extra
        | Some _ -> (
            match Hashtbl.find_opt sh.sh_named key with
            | Some fr -> undigested fr
            | None ->
                let fr = make cx fname extra in
                Hashtbl.replace sh.sh_named key (undigested fr);
                fr)
      in
      Hashtbl.replace cx.cx_frames key fr;
      fr

(* ------------------------------------------------------------------ *)
(* Exact comparison                                                     *)
(* ------------------------------------------------------------------ *)

let same_avalue (x : Avalue.t) (y : Avalue.t) =
  x == y
  ||
  let { Astree_domains.Clocked.v; vminus; vplus } = x in
  Reldom.same_itv v y.Astree_domains.Clocked.v
  && Reldom.same_itv vminus y.Astree_domains.Clocked.vminus
  && Reldom.same_itv vplus y.Astree_domains.Clocked.vplus

type entry = {
  fe_frame : t;
  fe_bot : bool;
  fe_clock : Astree_domains.Itv.t;
  fe_cells : Avalue.t array;  (** by frame position; [absent] when unbound *)
  fe_rel : Relstate.t;  (** the frame packs only *)
}

(* The value of a frame cell the state does not bind: compared
   physically, never a real value. *)
let absent : Avalue.t = Avalue.of_itv ~use_clocked:false ~clock:Astree_domains.Itv.Bot Astree_domains.Itv.Bot

let entry (fr : t) (st : Astate.t) : entry =
  {
    fe_frame = fr;
    fe_bot = st.Astate.bot;
    fe_clock = st.Astate.clock;
    fe_cells =
      Array.map
        (fun cid ->
          match Env.find st.Astate.env cid with Some v -> v | None -> absent)
        fr.fr_cells;
    fe_rel =
      List.fold_left (fun acc rp -> rel_keep rp st.Astate.rel acc) Relstate.empty fr.fr_rel;
  }

(* A cell that compares equal takes the state's value in place: an entry
   then holds the cell values of the latest state it matched, which the
   analysis mostly still holds, instead of pinning copies from the
   iterate it was recorded in. *)
let same_entry (fr : t) (e : entry) (st : Astate.t) : bool =
  Reldom.same_itv e.fe_clock st.Astate.clock
  && e.fe_frame == fr
  && e.fe_bot = st.Astate.bot
  && (let cells = fr.fr_cells and vals = e.fe_cells in
      let rec go i =
        i < 0
        || (match Env.find st.Astate.env cells.(i) with
           | None -> vals.(i) == absent
           | Some v ->
               vals.(i) != absent
               && same_avalue vals.(i) v
               && (vals.(i) <- v;
                   true))
           && go (i - 1)
      in
      go (Array.length cells - 1))
  && List.for_all (fun rp -> rel_same rp e.fe_rel st.Astate.rel) fr.fr_rel

(* ------------------------------------------------------------------ *)
(* Framed states                                                        *)
(* ------------------------------------------------------------------ *)

(** The frame part of [st] that differs from [entry]: the cells and
    packs of [st] that are not physically those of [entry] ({!Env.diff},
    {!Ptmap.diff}), keyed by frame position, with [st]'s bottom flag and
    clock; [None] when one of them is outside the frame.  Everything
    else of [st] is [entry]'s own. *)
let restrict (fr : t) ~(entry : Astate.t) (st : Astate.t) : Astate.t option =
  if st.Astate.bot then Some Astate.bottom
  else
    match
      ( by_position fr.fr_cells fr.fr_by_id
          (Env.diff ~base:entry.Astate.env st.Astate.env),
        List.fold_left
          (fun acc rp -> rel_restrict rp ~entry:entry.Astate.rel st.Astate.rel acc)
          Relstate.empty fr.fr_rel )
    with
    | env, rel -> Some (Astate.make ~env:(Env.Shared env) ~rel ~clock:st.Astate.clock)
    | exception Exit -> None

(** Inverse of {!restrict}: [entry] with the framed cells and packs laid
    over it.  Cells are never removed by the analysis, so a frame cell
    the framed state lacks holds [entry]'s value. *)
let overlay (fr : t) (framed : Astate.t) (entry : Astate.t) : Astate.t =
  if framed.Astate.bot then Astate.bottom
  else
    let env =
      match framed.Astate.env with
      | Env.Shared m ->
          Ptmap.fold
            (fun i v env -> Env.set env fr.fr_cells.(i) v)
            m entry.Astate.env
      | Env.Naive _ -> entry.Astate.env
    in
    Astate.make ~env
      ~rel:
        (List.fold_left
           (fun rel rp -> rel_overlay rp framed.Astate.rel rel)
           entry.Astate.rel fr.fr_rel)
      ~clock:framed.Astate.clock

(** [part frs ~inside st]: [st]'s part in the cells and packs of the
    frames [frs] ([inside]) or outside them, with [st]'s bottom flag and
    clock. *)
let part (frs : t list) ~(inside : bool) (st : Astate.t) : Astate.t =
  if st.Astate.bot then st
  else begin
    let cells = Hashtbl.create 1024 and packs = Hashtbl.create 64 in
    List.iter
      (fun fr ->
        Array.iter (fun c -> Hashtbl.replace cells c ()) fr.fr_cells;
        List.iter
          (fun (Rel r) ->
            let module M = (val r.dom) in
            Array.iter (fun pid -> Hashtbl.replace packs (M.name, pid) ()) r.ids)
          fr.fr_rel)
      frs;
    Astate.make
      ~env:(Env.filter (fun c -> Hashtbl.mem cells c = inside) st.Astate.env)
      ~rel:
        (List.fold_left
           (fun rel (module M : Reldom.S) ->
             M.set rel
               (Ptmap.filter_map
                  (fun pid x ->
                    if Hashtbl.mem packs (M.name, pid) = inside then Some x
                    else None)
                  (M.get rel)))
           st.Astate.rel Relstate.domains)
      ~clock:st.Astate.clock
  end

(* ------------------------------------------------------------------ *)
(* Keys and positions                                                   *)
(* ------------------------------------------------------------------ *)

let id (fr : t) =
  match fr.fr_id with
  | Some id -> id
  | None -> invalid_arg "Frame.id: a frame built without names"

let add_packs buf (fr : t) (st : Astate.t) =
  List.iter (fun rp -> rel_digest rp buf st.Astate.rel) fr.fr_rel

let position (a : int array) (x : int) : int option =
  let rec find i =
    if i = Array.length a then None
    else if a.(i) = x then Some i
    else find (i + 1)
  in
  find 0

let cells (fr : t) = Array.copy fr.fr_cells
let iter_cells f (fr : t) = Array.iter f fr.fr_cells
let cell_pos (fr : t) (cid : int) = find_pos fr.fr_cells fr.fr_by_id cid
let cell_at (fr : t) (i : int) = fr.fr_cells.(i)
let has_loops (fr : t) = fr.fr_loops <> [||]
let loop_pos (fr : t) = position fr.fr_loops
let loop_at (fr : t) (i : int) = fr.fr_loops.(i)
let oct_pos (fr : t) = position fr.fr_octs
let oct_at (fr : t) (i : int) = fr.fr_octs.(i)
