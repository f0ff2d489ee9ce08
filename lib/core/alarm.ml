(** Alarms: warnings issued in checking mode for each operator application
    that may give an error on the concrete level (Sect. 5.3).

    "In all cases, the analysis goes on with the non-erroneous concrete
    results (overflowing integers are wiped out and not considered modulo,
    thus following the end-user intended semantics)." *)

module F = Astree_frontend

type kind =
  | Int_overflow        (** integer wrap-around wrt the end-user semantics *)
  | Div_by_zero
  | Mod_by_zero
  | Out_of_bounds       (** array subscript possibly outside bounds *)
  | Float_overflow      (** result possibly exceeds the largest finite float *)
  | Invalid_op          (** NaN production, sqrt of negative, ... *)
  | Shift_range
  | Assert_failure      (** user [__astree_assert] possibly violated *)

let kind_to_string = function
  | Int_overflow -> "integer overflow"
  | Div_by_zero -> "division by zero"
  | Mod_by_zero -> "modulo by zero"
  | Out_of_bounds -> "out-of-bounds array access"
  | Float_overflow -> "float overflow"
  | Invalid_op -> "invalid operation"
  | Shift_range -> "shift out of range"
  | Assert_failure -> "assertion failure"

let pp_kind ppf k = Fmt.string ppf (kind_to_string k)

(** Provenance (ISSUE 5): why and where the alarm fired — the iterator's
    inlining stack at the alarm point, the abstract domain whose
    approximation the alarmed check ran in, and the abstract values of
    the offending operands.  Diagnostic payload only: dedup, compare and
    [pp] (hence the parallel fingerprint) ignore it. *)
type prov = {
  p_chain : string list;  (** innermost first, main last *)
  p_domain : string;
  p_operands : (string * string) list;
}

type t = {
  a_kind : kind;
  a_loc : F.Loc.t;
  a_msg : string;
  a_prov : prov option;
}

let pp ppf a =
  Fmt.pf ppf "%a: ALARM: %a%s" F.Loc.pp a.a_loc pp_kind a.a_kind
    (if a.a_msg = "" then "" else ": " ^ a.a_msg)

(** The --explain rendering: the [pp] line followed by indented
    provenance (call chain, raising domain, operand values). *)
let pp_explain ppf a =
  pp ppf a;
  match a.a_prov with
  | None -> Fmt.pf ppf "@.    (no provenance recorded)"
  | Some p ->
      Fmt.pf ppf "@.    in: %s"
        (match p.p_chain with
        | [] -> "<toplevel>"
        | chain -> String.concat " <- " chain);
      Fmt.pf ppf "@.    domain: %s" p.p_domain;
      List.iter
        (fun (e, v) -> Fmt.pf ppf "@.    %s = %s" e v)
        p.p_operands

let compare (a : t) (b : t) =
  let c = F.Loc.compare a.a_loc b.a_loc in
  if c <> 0 then c else Stdlib.compare a.a_kind b.a_kind

(** Alarm collector: alarms are deduplicated by (location, kind), so a
    program point reanalyzed many times (polyvariant calls, loop
    iterations) reports once, as the paper's alarm counts do.  [chain]
    mirrors the iterator's inlining stack (innermost first); the
    iterator maintains it so every report picks up its calling context
    for free. *)
type collector = {
  mutable alarms : (kind * F.Loc.t, t) Hashtbl.t option;
      (** [None] until the first alarm: most capture sections see none *)
  mutable enabled : bool;  (** false in iteration mode, true in checking *)
  mutable chain : string list;
}

let make_collector () = { alarms = None; enabled = false; chain = [] }

let table (c : collector) =
  match c.alarms with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 16 in
      c.alarms <- Some tbl;
      tbl

let mem (c : collector) key =
  match c.alarms with Some tbl -> Hashtbl.mem tbl key | None -> false

let report ?(domain = "interval") ?(operands = []) (c : collector)
    (kind : kind) (loc : F.Loc.t) (msg : string) : unit =
  if c.enabled then
    let key = (kind, loc) in
    if not (mem c key) then
      Hashtbl.replace (table c) key
        {
          a_kind = kind;
          a_loc = loc;
          a_msg = msg;
          a_prov =
            Some
              { p_chain = c.chain; p_domain = domain; p_operands = operands };
        }

let to_list (c : collector) : t list =
  match c.alarms with
  | None -> []
  | Some tbl ->
      Hashtbl.fold (fun _ a acc -> a :: acc) tbl [] |> List.sort compare

let count (c : collector) : int =
  match c.alarms with Some tbl -> Hashtbl.length tbl | None -> 0

(** Merge alarms recorded elsewhere (a replayed summary, a released
    capture) into [c], irrespective of [c.enabled]: the recording run
    already ran under the right checking mode.  Keeps the first alarm
    per (kind, location), so merging in computation order reproduces
    the sequential deduplication exactly — including which provenance
    survives. *)
let absorb (c : collector) (delta : t list) : unit =
  List.iter
    (fun (a : t) ->
      let key = (a.a_kind, a.a_loc) in
      if not (mem c key) then Hashtbl.replace (table c) key a)
    delta

(** Capture sections, used by the summary cache to isolate the alarms of
    one function call.  [capture] swaps in a fresh table (keeping the
    mode flag), allocated on its first alarm; [release] puts the saved
    table back, absorbs the alarms recorded meanwhile (first-in wins,
    exactly the sequential policy) and returns them.  Captures nest like
    a stack. *)
type capture = (kind * F.Loc.t, t) Hashtbl.t option

let capture (c : collector) : capture =
  let saved = c.alarms in
  c.alarms <- None;
  saved

(** [drop] ends a capture section without absorbing: the saved table
    is put back and the alarms recorded meanwhile are returned, set
    aside for the caller to {!absorb} later or to ignore. *)
let drop (c : collector) (saved : capture) : t list =
  let fresh = to_list c in
  c.alarms <- saved;
  fresh

let release (c : collector) (saved : capture) : t list =
  let fresh = drop c saved in
  absorb c fresh;
  fresh
