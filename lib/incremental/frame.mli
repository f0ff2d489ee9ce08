(** Summary frames: the part of the abstract state one memoized call can
    read or write — the cells of its transitive read/write footprint
    and of its by-reference bindings, closed under relational pack
    membership; the whole state when the callee can reach the clock
    tick, and every float cell too when it has a loop (the floating
    perturbation of Sect. 7.1.4 enlarges them all).  Cells, packs and
    loops are listed in a program-stable order, so a summary stored by
    frame position replays in any program whose frame has the same
    identity.  DESIGN.md §8. *)

type t

(** Frames of one analysis context, computed on demand and kept. *)
type ctx

val ctx : Fingerprint.t -> Astree_core.Transfer.actx -> ctx

(** The frame of a call to [fname] with these by-reference bindings. *)
val of_call : ctx -> fname:string -> Astree_core.Transfer.binds -> t

(** The frame of every cell and pack of the program (and no loop). *)
val whole : ctx -> t

(** Digest of the entry state restricted to the frame, with the frame's
    identity, bottom flag, clock and the by-reference bindings (by
    variable name, with their relative locations). *)
val entry_digest :
  ctx -> t -> Astree_core.Astate.t -> Astree_core.Transfer.binds -> string

(** [restrict fr ~entry st]: the frame part of [st] that is not
    physically [entry]'s, keyed by frame position (cells and packs),
    with [st]'s bottom flag and clock. *)
val restrict :
  t -> entry:Astree_core.Astate.t -> Astree_core.Astate.t -> Astree_core.Astate.t

(** [overlay fr framed entry]: [entry] with a {!restrict}ed state laid
    over it, packs renamed to this program's variables; bottom when
    [framed] is. *)
val overlay :
  t -> Astree_core.Astate.t -> Astree_core.Astate.t -> Astree_core.Astate.t

(** {1 Positions} of cells, loops and octagon packs in the frame *)

val cells : t -> int array
val cell_pos : t -> int -> int option
val cell_at : t -> int -> int
val loop_pos : t -> int -> int option
val loop_at : t -> int -> int
val oct_pos : t -> int -> int option
val oct_at : t -> int -> int
