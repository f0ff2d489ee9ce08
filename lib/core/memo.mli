(** The call memo (DESIGN.md §6, §8).

    Context-sensitive polyvariant inlining (Sect. 5.4) re-analyzes a
    callee for every call context.  The call memo replays a call whose
    framed input was seen before, through one record-and-replay path
    with two tiers: the enclosing loop's slots for the call site, an
    exact tier with loop lifetime (§6), and the keyed tier
    {!Transfer.session.ses_keyed} that [Astree_incremental] installs,
    with cross-run lifetime (§8).  There is no entailment shortcut, so a
    replay is observationally identical to re-analysis. *)

(** The call sites of one loop body: each call statement under the
    loop and the inlining stack, with its slots and the call sites of
    its callee's body. *)
type sites

(** Outside every loop: a call has no slot. *)
val no_sites : sites

(** Fresh call sites, for one loop's lifetime. *)
val loop_sites : unit -> sites

(** Minimal transitive inlined statement count of a callee before the
    keyed tier is worth a key. *)
val memo_min_stmts : int ref

(** [call a sites ~site ~fname binds st compute]: the result of
    [compute inner], the analysis of the body of a call to [fname] at
    the statement [site] of a body whose call sites are [sites], from
    the bound entry state [st], with its side effects on [a].  It is
    replayed from the site's slots or from the keyed tier, or computed
    with [inner], the call sites of the callee's body, and recorded. *)
val call :
  Transfer.actx ->
  sites ->
  site:Astree_frontend.Tast.stmt ->
  fname:string ->
  Transfer.binds ->
  Astate.t ->
  (sites -> Astate.t * Astree_domains.Itv.t) ->
  Astate.t * Astree_domains.Itv.t

(** {1 Sections}

    A computed call runs in one bookkeeping section
    ({!Transfer.open_section}), which isolates its exact effects on the
    context — alarms, loop invariants, useful octagon packs, shared-cell
    writes — so that the call's summary holds them and replay absorbs
    them verbatim ({!Transfer.absorb}).  The memo only translates the
    section's delta to and from the coordinates of the call's frame. *)

(** [record a fr ~entry compute x]: [compute x] in a section, and the
    call's summary in the coordinates of its frame [fr], alarms at their
    absolute locations.  An invariant is in it iff the call left it
    physically different from its value at entry; a pack iff the call
    made it useful.  The summary is [None] when an effect falls outside
    the frame: a loop, a pack, a shared-cell write, or a cell or pack
    of the exit state or of an invariant that differs from [entry]
    outside the frame ({!Frame.restrict}).  When [compute] raises, the
    section is closed, its effects kept in the context, and the
    exception is re-raised. *)
val record :
  Transfer.actx ->
  Frame.t ->
  entry:Astate.t ->
  ('a -> Astate.t * Astree_domains.Itv.t) ->
  'a ->
  (Astate.t * Astree_domains.Itv.t) * Transfer.summary option

(** Replay a summary from the bound entry state [entry]: the exit state
    and return value, with every recorded side effect absorbed into the
    context; an inner loop's invariant is replaced, as recomputing the
    call would. *)
val replay :
  Transfer.actx ->
  Frame.t ->
  entry:Astate.t ->
  Transfer.summary ->
  Astate.t * Astree_domains.Itv.t
