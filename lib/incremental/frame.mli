(** Summary frames: {!Astree_core.Frame} built with program-stable names
    ({!Fingerprint.var_name}, {!Fingerprint.loop_name}), so that cells,
    packs and loops are listed in a program-stable order and a summary
    stored by frame position replays in any program whose frame has the
    same identity — and the entry digest that keys the store.
    DESIGN.md §8. *)

type t = Astree_core.Frame.t

(** Frames of one analysis context, with the fingerprints their keys
    are written with. *)
type ctx

(** The names frames are ordered and identified by. *)
val names : Fingerprint.t -> Astree_core.Frame.names

(** A fresh named frame context of [a]. *)
val ctx : Fingerprint.t -> Astree_core.Transfer.actx -> ctx

(** The frames of [a] itself when they carry names — the summary memo
    was installed before [a] was made, so the loops' call slots and the
    store share them — else a fresh named frame context. *)
val of_actx : Fingerprint.t -> Astree_core.Transfer.actx -> ctx

val of_call : ctx -> fname:string -> Astree_core.Transfer.binds -> t
val whole : ctx -> t

(** Digest of the entry state restricted to the frame, with the frame's
    identity, bottom flag, clock and the by-reference bindings (by
    variable name, with their relative locations). *)
val entry_digest :
  ctx -> t -> Astree_core.Astate.t -> Astree_core.Transfer.binds -> string
