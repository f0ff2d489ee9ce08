(** Call frames: the part of the abstract state one call can read or
    write — the cells of its transitive read/write footprint and of its
    by-reference bindings, closed under relational pack membership; the
    whole state when the callee can reach the clock tick, and every
    float cell too when it has a loop (the floating perturbation of
    Sect. 7.1.4 enlarges them all).  A call whose framed entry is the
    same gives the same framed result, so a recorded result can be
    replayed: within one loop ([Iterator], DESIGN.md §6) and, with
    program-stable names, across runs ([Astree_incremental], §8).
    Without names, frames are listed in id order and cost no naming. *)

(** Program-stable names of variables and loops: a frame built with
    them lists its cells, packs and loops in a program-stable order and
    has an identity ({!id}). *)
type names = {
  var_name : Astree_frontend.Tast.var -> string;
  loop_name : int -> string;
}

type t

(** What the frames of one program share across its analyses (a
    [Transfer.prepared] record holds it): the program, its
    configuration, packing and cell numbering, the facts of each body,
    and the named frames built with one set of names.  A run's frames
    keep their pack digests; the shared ones hold none. *)
type shared

(** [shared p funs cfg packs intern]: [funs] are [p]'s functions by
    name, the first definition first; [intern] has numbered every cell
    a frame of [p] under [cfg] can hold. *)
val shared :
  Astree_frontend.Tast.program ->
  (string, Astree_frontend.Tast.fundef) Hashtbl.t ->
  Config.t ->
  Packing.t ->
  Cell.interner ->
  shared

(** Frames of one analysis context, computed on demand and kept. *)
type ctx

(** A frame context over [shared].  With [names], it reuses the named
    frames [shared] holds and adds the ones it builds, after dropping
    those built with other names. *)
val ctx : ?names:names -> shared -> ctx

val names : ctx -> names option

(** The frame of a call to [fname] with these by-reference bindings. *)
val of_call : ctx -> fname:string -> Reldom.binds -> t

(** The frame of every cell and pack of the program (and no loop). *)
val whole : ctx -> t

(** {1 Framed entries} *)

(** An entry state as far as a frame sees it: bottom flag, clock, the
    frame cells' values and the relational part.  It keeps the cells'
    values, not the state's environment, so a kept entry does not keep
    the states around it alive. *)
type entry

val entry : t -> Astate.t -> entry

(** Does a state agree with a framed entry taken with the same frame:
    bottom flag, clock, every frame cell and every frame pack, compared
    exactly (floats bit for bit, the octagon closure state included:
    what a summary key encodes)?  The clock is compared first.  The
    entry takes the state's value of every cell that compares equal, so
    it does not pin copies older than the latest state it matched. *)
val same_entry : t -> entry -> Astate.t -> bool

(** [restrict fr ~entry st]: the part of [st] that is not physically
    [entry]'s, keyed by frame position (cells and packs), with [st]'s
    bottom flag and clock; [None] when a cell or pack outside the frame
    differs.  It costs what the states' difference costs ({!Env.diff},
    {!Ptmap.diff}), not what the frame holds. *)
val restrict : t -> entry:Astate.t -> Astate.t -> Astate.t option

(** [overlay fr framed entry]: [entry] with a {!restrict}ed state laid
    over it, packs renamed to this program's variables; bottom when
    [framed] is. *)
val overlay : t -> Astate.t -> Astate.t -> Astate.t

(** [part frs ~inside st]: [st]'s part in the cells and packs of the
    frames [frs] ([inside]) or outside them, with [st]'s bottom flag and
    clock.  Frames are closed under packs, so a pack is on one side
    with all its cells. *)
val part : t list -> inside:bool -> Astate.t -> Astate.t

(** {1 Keys} *)

(** The frame's identity: its cells' names and types, its packs' and
    loops' names.  Only a frame built with names has one.
    @raise Invalid_argument otherwise. *)
val id : t -> string

(** Append the MD5 of each frame pack's element of [st], in frame
    order. *)
val add_packs : Buffer.t -> t -> Astate.t -> unit

(** {1 Positions} of cells, loops and octagon packs in the frame *)

val cells : t -> int array
val iter_cells : (int -> unit) -> t -> unit
val cell_pos : t -> int -> int option
val cell_at : t -> int -> int
val has_loops : t -> bool
val loop_pos : t -> int -> int option
val loop_at : t -> int -> int
val oct_pos : t -> int -> int option
val oct_at : t -> int -> int
