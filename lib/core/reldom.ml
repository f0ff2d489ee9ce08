(** One relational domain of the pack-wise product (Sect. 6.2.2–6.2.4,
    7.2): the signature every relational domain implements, the
    reduction channel through which it talks to the intervals, and the
    canonical encoding its summary-key digest is written in.

    A relational domain keeps one abstract element per pack, in a
    {!Ptmap} keyed by pack id inside {!rel}.  {!Relstate} folds the
    lattice operations, census, digest and dump over the ordered list
    of domains; {!Transfer} folds [assign] and [guard] over the enabled
    ones.  The domains sit below both: whatever they need from the
    interval environment or the analysis context comes through a
    {!chan}, never from a direct call back into [Transfer]. *)

module F = Astree_frontend
module D = Astree_domains
open F.Tast

(** The relational part of an abstract state: one map per domain.  The
    record is also the on-disk layout of every stored summary state, so
    a new domain adds a field here (and bumps the store version). *)
type rel = {
  octs : D.Octagon.t Ptmap.t;
  ells : D.Ellipsoid.t Ptmap.t;
  dts : D.Decision_tree.t Ptmap.t;
}

(** Bindings of by-reference parameters to actual lvalues. *)
type binds = lval VarMap.t

(** The reduction channel, one static record for the whole analyzer:
    ['ctx] is the analysis context, ['st] the abstract state.  Each
    function takes the context explicitly, so a transfer call through
    the channel allocates nothing. *)
type ('ctx, 'st) chan = {
  packing : 'ctx -> Packing.t;
  rel : 'st -> rel;
  with_rel : 'st -> rel -> 'st;
  bottom : 'st;
  var_itv : 'ctx -> 'st -> var -> D.Itv.t;
      (** clock-reduced interval of a scalar variable, joined with the
          rely set of a shared variable *)
  refine : 'ctx -> 'st -> var -> D.Itv.t -> 'st;
      (** meet a variable's interval with a bound; bottom when empty *)
  eval : 'ctx -> 'st -> binds -> (var -> D.Itv.t option) -> expr -> D.Itv.t;
      (** interval evaluation that never raises an alarm, the hook
          overriding variable ranges (decision-tree leaves) *)
  resolve : binds -> expr -> expr;
      (** substitute by-reference parameters away *)
  useful : 'ctx -> int -> unit;
      (** record that an octagon pack refined an interval (Sect. 7.2.2) *)
}

(** Float hull of a variable's interval, the oracle of linear forms;
    NaN bounds for an unreachable value. *)
let oracle c ctx st v =
  match D.Itv.float_hull (c.var_itv ctx st v) with
  | Some h -> h
  | None -> (Float.nan, Float.nan)

module type S = sig
  type t  (** the abstract element of one pack *)

  type pack

  val name : string
  (** the domain an alarm is attributed to ([Transfer.value_domain]) *)

  val enabled : Config.t -> bool

  val packs : Packing.t -> pack list
  val pack_id : pack -> int
  val packs_of : Packing.t -> var -> pack list

  val pack_vars : pack -> var array
  (** the pack's variables, in the order its element indexes them *)

  val add_pack : (var -> string) -> Buffer.t -> pack -> unit
  (** identity of a pack across programs: its variables under the given
      names, in element order, and whatever else fixes the meaning of
      its element (summary frames, DESIGN.md §8) *)

  val rename : pack -> t -> t
  (** an element computed over another program's copy of [pack] (same
      {!add_pack} identity), re-expressed over [pack]'s own variables *)

  val top : pack -> t

  val get : rel -> t Ptmap.t
  val set : rel -> t Ptmap.t -> rel

  (** {1 Lattice} *)

  val join : t -> t -> t
  val meet : t -> t -> t
  val widen : thresholds:D.Thresholds.t -> t -> t -> t
  val narrow : t -> t -> t
  val subset : t -> t -> bool
  val equal : t -> t -> bool

  val same : t -> t -> bool
  (** exact identity: every field {!digest} encodes is equal, floats
      bit for bit ([-0.0] is not [+0.0], a NaN is itself) and the
      octagon closure state included — the test behind replaying a
      call whose framed input did not change.  [equal] is coarser. *)

  (** {1 Transfer functions}

      Each reads and writes its own map through [chan.rel]/[with_rel]
      and reduces the packs it changed to interval bounds. *)

  val assign :
    ('c, 's) chan -> 'c -> pre:'s -> 's -> binds -> var -> expr -> D.Itv.t -> 's
  (** [assign c ctx ~pre st binds x rhs i]: [x := rhs] on the packs of
      [x].  [rhs] is resolved and evaluates to [i]; it is read in [pre],
      the state before the write, while [st], the state after it, is
      the one updated.  Reading [rhs] in [st] would see the new value of
      [x] where the old one is meant. *)

  val guard : ('c, 's) chan -> 'c -> 's -> binds -> expr -> bool -> 's
  (** refine under [cond = truth]; conditions the domain cannot use
      leave the state unchanged *)

  val writeback : ('c, 's) chan -> 'c -> 's -> var list -> 's
  (** meet the variables' intervals with the bounds the packs imply *)

  val relates : Packing.t -> var list -> bool
  (** does this domain carry information relating the variables? *)

  (** {1 Accounting} *)

  val census : (float -> unit) -> t -> (string * int) list
  (** named assertion counts of one pack (Sect. 9.4.1); the callback
      sees the constants the census counts *)

  val digest : Buffer.t -> t -> unit
  (** canonical encoding (summary keys): location-free and name-free,
      variables written by their position in the pack *)

  val pp : Format.formatter -> int -> t -> unit
  (** the assertions of pack [id], nothing when it carries none *)
end

(* ------------------------------------------------------------------ *)
(* Comparisons                                                          *)
(* ------------------------------------------------------------------ *)

(** [not (x op y)] is [x (negate_cmp op) y]. *)
let negate_cmp : binop -> binop = function
  | Lt -> Ge | Ge -> Lt | Gt -> Le | Le -> Gt | Eq -> Ne | Ne -> Eq
  | op -> op

(** [x op y] is [y (swap_cmp op) x]. *)
let swap_cmp : binop -> binop = function
  | Lt -> Gt | Gt -> Lt | Le -> Ge | Ge -> Le | op -> op

(** The values of [x] for which [x op y] may hold. *)
let refine_cmp (op : binop) (x : D.Itv.t) (y : D.Itv.t) : D.Itv.t =
  match op with
  | Lt -> D.Itv.refine_lt x y
  | Gt -> D.Itv.refine_gt x y
  | Le -> D.Itv.refine_le x y
  | Ge -> D.Itv.refine_ge x y
  | Eq -> D.Itv.refine_eq x y
  | Ne -> D.Itv.refine_ne x y
  | _ -> x

(* ------------------------------------------------------------------ *)
(* Canonical encoding                                                   *)
(* ------------------------------------------------------------------ *)

(* A canonical, location-free binary form of abstract values: fixed-width
   integers, floats by their bits, strings length-prefixed, one tag byte
   per variant — self-delimiting, so concatenations cannot collide.
   Variables are written by their position in the pack, never by name
   or id: the pack's identity (its variables' program-stable names) is
   written once by the summary frame, so an element keys the same in
   every program that has the pack.  Every record is taken apart with an
   exhaustive pattern, so a field added later breaks the build (warning
   9) until it is written or explicitly skipped: a field left out of the
   key would let two different states share it. *)

let add_i64 buf n = Buffer.add_int64_le buf (Int64.of_int n)
let add_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let add_str buf s =
  add_i64 buf (String.length s);
  Buffer.add_string buf s

(* Position of a pack variable in its element's variable array. *)
let add_pos buf (vs : var array) (v : var) =
  let rec find i =
    if i = Array.length vs then add_i64 buf (-1)
    else if vs.(i).v_id = v.v_id then add_i64 buf i
    else find (i + 1)
  in
  find 0

(* [vs] with every variable replaced by the one at the same position of
   [by]; [vs] itself when they already are the same variables. *)
let rename_vars ~(by : var array) (vs : var array) : var array =
  if Array.length vs = Array.length by
     && Array.for_all2 (fun a b -> a.v_id = b.v_id) vs by
  then vs
  else by

(* The renaming of one variable id between two such arrays. *)
let rename_id ~(from : var array) ~(by : var array) (id : int) : int =
  let rec find i =
    if i = Array.length from then id
    else if from.(i).v_id = id then by.(i).v_id
    else find (i + 1)
  in
  find 0

(* Exact identity of the values the encoding writes, compared instead
   of encoded: floats by their bits. *)
let same_float (x : float) (y : float) =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_floats (x : float array) (y : float array) =
  x == y
  || Array.length x = Array.length y
     &&
     let rec go i = i < 0 || (same_float x.(i) y.(i) && go (i - 1)) in
     go (Array.length x - 1)

let same_itv (x : D.Itv.t) (y : D.Itv.t) =
  x == y
  ||
  match (x, y) with
  | D.Itv.Bot, D.Itv.Bot -> true
  | D.Itv.Int (a, b), D.Itv.Int (c, d) -> a = c && b = d
  | D.Itv.Float (a, b), D.Itv.Float (c, d) -> same_float a c && same_float b d
  | _ -> false

let add_itv buf : D.Itv.t -> unit = function
  | D.Itv.Bot -> Buffer.add_char buf 'b'
  | D.Itv.Int (lo, hi) ->
      Buffer.add_char buf 'i';
      add_i64 buf lo;
      add_i64 buf hi
  | D.Itv.Float (lo, hi) ->
      Buffer.add_char buf 'f';
      add_float buf lo;
      add_float buf hi
