(** Summary frames: the program-stable names ({!Fingerprint.var_name},
    {!Fingerprint.loop_name}) that {!Astree_core.Frame} is built with
    when the keyed tier is installed, so that cells, packs and loops are
    listed in a program-stable order and a summary stored by frame
    position replays in any program whose frame has the same identity —
    and the entry digest that keys the store.  DESIGN.md §8. *)

(** The names frames are ordered and identified by. *)
val names : Fingerprint.t -> Astree_core.Frame.names

(** Digest of the entry state restricted to a frame built with
    {!names}, with the frame's identity, bottom flag, clock and the
    by-reference bindings (by variable name, with their relative
    locations). *)
val entry_digest :
  Fingerprint.t ->
  Astree_core.Frame.t ->
  Astree_core.Astate.t ->
  Astree_core.Transfer.binds ->
  string
