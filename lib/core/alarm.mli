(** Alarms: warnings issued in checking mode for each operator
    application that may give an error on the concrete level
    (Sect. 5.3).  The analysis continues with the non-erroneous concrete
    results. *)

type kind =
  | Int_overflow   (** integer wrap-around wrt the end-user semantics *)
  | Div_by_zero
  | Mod_by_zero
  | Out_of_bounds  (** array subscript possibly outside bounds *)
  | Float_overflow (** result possibly beyond the largest finite float *)
  | Invalid_op     (** NaN production, sqrt of a negative, ... *)
  | Shift_range
  | Assert_failure (** user [__astree_assert] possibly violated *)

val kind_to_string : kind -> string
val pp_kind : Format.formatter -> kind -> unit

(** Provenance: the iterator's inlining stack at the alarm point
    (innermost first), the abstract domain whose approximation raised
    the check ("interval", "octagon", "clocked", "ellipsoid",
    "decision-tree"), and printed abstract values of the offending
    operands.  Purely diagnostic: {!compare}, dedup and {!pp} ignore
    it, so fingerprints and alarm counts are unaffected. *)
type prov = {
  p_chain : string list;
  p_domain : string;
  p_operands : (string * string) list;
}

type t = {
  a_kind : kind;
  a_loc : Astree_frontend.Loc.t;
  a_msg : string;
  a_prov : prov option;
}

val pp : Format.formatter -> t -> unit

val pp_explain : Format.formatter -> t -> unit
(** The [--explain] rendering: the {!pp} line plus indented call chain,
    raising domain and operand values. *)

val compare : t -> t -> int

(** Alarm collector: alarms are deduplicated by (location, kind), so a
    program point reanalyzed many times reports once. *)
type collector = {
  mutable alarms : (kind * Astree_frontend.Loc.t, t) Hashtbl.t option;
      (** [None] until the first alarm *)
  mutable enabled : bool;
      (** false in iteration mode, true in checking mode (Sect. 5.3) *)
  mutable chain : string list;
      (** current inlining context, innermost first; maintained by the
          iterator, recorded into each alarm's provenance *)
}

val make_collector : unit -> collector

(** Record an alarm (no-op when the collector is disabled).  [domain]
    defaults to ["interval"], the base domain of every check;
    [operands] are (expression, abstract value) pairs, printed. *)
val report :
  ?domain:string ->
  ?operands:(string * string) list ->
  collector ->
  kind ->
  Astree_frontend.Loc.t ->
  string ->
  unit

val to_list : collector -> t list
val count : collector -> int

(** Merge alarms recorded elsewhere (a replayed summary, a released
    capture) into the collector, first-in wins per (kind, location), irrespective of the
    enabled flag. *)
val absorb : collector -> t list -> unit

(** Capture section: [capture] diverts subsequent reports into a fresh
    table, allocated on the first of them; [release] restores the
    previous table, absorbs the diverted alarms back (first-in wins) and
    returns them.  Used by [Transfer]'s bookkeeping sections (a memo
    call, a half of a split loop); sections nest. *)
type capture

val capture : collector -> capture
val release : collector -> capture -> t list

(** Like {!release}, but the diverted alarms are only returned, not
    absorbed: the caller {!absorb}s them later or drops them. *)
val drop : collector -> capture -> t list
