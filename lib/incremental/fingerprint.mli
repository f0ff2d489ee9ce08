(** Content-addressed fingerprints of the typed IR: a stable hash per
    function covering its structure, types, transitive callees and the
    analysis context.  Variables, temporaries and loops enter by
    per-function names, never by dense ids or program-wide counters,
    and source locations are left out — so whitespace/comment edits
    keep every fingerprint while a body edit invalidates the edited
    function and its transitive callers, and nothing else.  Summaries
    are keyed by {!summary_fn}, which adds the callee closure's
    locations, each relative to the definition of its function. *)

type t

(** Fingerprint every function of [p] under [cfg].  Not memoized: a
    prepared program keeps its own ([Summary.keys]). *)
val make : Astree_core.Config.t -> Astree_frontend.Tast.program -> t

(** Digest of every result-affecting configuration field ([jobs],
    [summary_cache] and the budget excluded: all result-neutral;
    [loop_unroll_overrides] folded per loop into function
    fingerprints instead). *)
val config_digest : Astree_core.Config.t -> string

(** Fingerprint of one function; [None] when not cacheable (on a call
    cycle or calling an unknown function). *)
val fn : t -> string -> string option

(** What a function's summaries are keyed by: {!fn} together with a
    closure digest of the locations of the function and its transitive
    callees, each relative to its function's definition ({!relative}).
    Replayed alarms carry those locations: a summary replays in a copy
    whose functions moved as wholes, never in one where code moved
    inside a function. *)
val summary_fn : t -> string -> string option

(** Whole-program fingerprint, location-free. *)
val program : t -> string

(** {1 Program-stable names} *)

(** A variable's name across programs: globals and statics by their
    source name, parameters by function and parameter name, locals and
    temporaries by function, source name and rank among the function's
    variables of that name. *)
val var_name : t -> Astree_frontend.Tast.var -> string

(** A loop's name across programs: its function and its rank among the
    function's loops. *)
val loop_name : t -> int -> string

(** A location relative to the function it lies in: the function and
    the location with an empty file and the line offset from the
    function's definition; [("", l)] before the first definition of
    its file. *)
val relative : t -> Astree_frontend.Loc.t -> string * Astree_frontend.Loc.t

(** Inverse of {!relative} in this program: a relative location laid
    back onto the function's current definition. *)
val rebase : t -> string * Astree_frontend.Loc.t -> Astree_frontend.Loc.t

(** {1 Token writers} (also used by summary keys) *)

(** An lvalue with its variables by {!var_name}. *)
val add_lval : t -> Buffer.t -> Astree_frontend.Tast.lval -> unit

(** The locations of an lvalue and of every lvalue and expression
    inside it, in traversal order, each relative as by {!relative} —
    the locations an alarm raised while evaluating it may carry.
    Unambiguous only after {!add_lval} of the same lvalue. *)
val add_lval_locs : t -> Buffer.t -> Astree_frontend.Tast.lval -> unit
