(** The clocked abstract domain (Sect. 6.2.1).

    A great number of interval false alarms originate from possible
    overflows in counters triggered by external events; those overflows
    cannot happen because events are counted at most once per clock cycle
    and the number of cycles is bounded by the maximal continuous
    operating time.

    The clocked domain is parametric in an underlying scalar domain X#
    (here {!Itv}); its elements are triples (v, v-, v+) representing the
    set of values x such that x in gamma(v), x - clock in gamma(v-) and
    x + clock in gamma(v+), where clock is a hidden variable incremented
    at each [__astree_wait_for_clock()]. *)

type t = {
  v : Itv.t;        (** the value itself *)
  vminus : Itv.t;   (** value - clock *)
  vplus : Itv.t;    (** value + clock *)
}

let bot = { v = Itv.Bot; vminus = Itv.Bot; vplus = Itv.Bot }

let is_bot c = Itv.is_bot c.v

(* The hidden clock is an integer counter; cells may be floats.  Coerce
   the clock to the cell's kind before mixing. *)
let clock_as (i : Itv.t) (clock : Itv.t) : Itv.t =
  match i with
  | Itv.Float _ -> Itv.int_to_float clock
  | _ -> clock

(** Inject a plain interval: the triple records the value's current
    offsets to the clock. *)
let of_itv (i : Itv.t) (clock : Itv.t) : t =
  if Itv.is_bot i || Itv.is_bot clock then
    { v = i; vminus = Itv.Bot; vplus = Itv.Bot }
  else
    let c = clock_as i clock in
    { v = i; vminus = Itv.sub i c; vplus = Itv.add i c }

(** Forget the clock information. *)
let to_itv c = c.v

let equal a b =
  Itv.equal a.v b.v && Itv.equal a.vminus b.vminus && Itv.equal a.vplus b.vplus

let pp ppf c =
  Fmt.pf ppf "(v=%a, v-clk=%a, v+clk=%a)" Itv.pp c.v Itv.pp c.vminus Itv.pp
    c.vplus

(* ------------------------------------------------------------------ *)
(* Reduction                                                           *)
(* ------------------------------------------------------------------ *)

(** Reduce the triple knowing the current clock range: the concretization
    is the intersection of the three components' constraints, so
    v may be tightened to v ∩ (v- + clock) ∩ (v+ - clock). *)
let reduce (clock : Itv.t) (c : t) : t =
  if is_bot c then bot
  else
    let ck = clock_as c.v clock in
    let from_minus =
      if Itv.is_bot c.vminus || Itv.is_bot ck then c.v
      else Itv.add c.vminus ck
    in
    let from_plus =
      if Itv.is_bot c.vplus || Itv.is_bot ck then c.v
      else Itv.sub c.vplus ck
    in
    let v = Itv.meet c.v (Itv.meet from_minus from_plus) in
    if Itv.is_bot v then bot else { c with v }

(* ------------------------------------------------------------------ *)
(* Lattice                                                             *)
(* ------------------------------------------------------------------ *)

(* In a non-bottom triple, a [Bot] clock component means "no information"
   (top), not emptiness: emptiness is carried by the [v] component.  The
   component-wise operations below implement that convention. *)

let cjoin a b = if Itv.is_bot a || Itv.is_bot b then Itv.Bot else Itv.join a b

let cmeet a b =
  if Itv.is_bot a then b else if Itv.is_bot b then a else Itv.meet a b

let cwiden ~thresholds a b =
  if Itv.is_bot a || Itv.is_bot b then Itv.Bot
  else Itv.widen ~thresholds a b

let cnarrow a b =
  if Itv.is_bot a then b else if Itv.is_bot b then a else Itv.narrow a b

let csubset a b =
  Itv.is_bot b || ((not (Itv.is_bot a)) && Itv.subset a b)

let join a b =
  if is_bot a then b
  else if is_bot b then a
  else
    {
      v = Itv.join a.v b.v;
      vminus = cjoin a.vminus b.vminus;
      vplus = cjoin a.vplus b.vplus;
    }

let meet a b =
  if is_bot a || is_bot b then bot
  else
    let v = Itv.meet a.v b.v in
    if Itv.is_bot v then bot
    else
      let vminus = cmeet a.vminus b.vminus in
      let vplus = cmeet a.vplus b.vplus in
      (* an empty meet on a clock component signals contradiction *)
      if
        (Itv.is_bot vminus && not (Itv.is_bot a.vminus || Itv.is_bot b.vminus))
        || (Itv.is_bot vplus && not (Itv.is_bot a.vplus || Itv.is_bot b.vplus))
      then bot
      else { v; vminus; vplus }

let widen ~thresholds a b =
  if is_bot a then b
  else if is_bot b then a
  else
    (* The clock components of non-counter cells drift by one every tick;
       threshold widening would chase them up the whole ladder, forcing a
       widening round per threshold and destabilizing unrelated
       constraints.  An unstable clock bound carries no information, so
       it jumps straight to infinity; the *useful* bounds (e.g.
       counter - clock <= 0) are genuinely invariant and never widen. *)
    let no_thresholds = Thresholds.none in
    {
      v = Itv.widen ~thresholds a.v b.v;
      vminus = cwiden ~thresholds:no_thresholds a.vminus b.vminus;
      vplus = cwiden ~thresholds:no_thresholds a.vplus b.vplus;
    }

let narrow a b =
  if is_bot a || is_bot b then bot
  else
    {
      v = Itv.narrow a.v b.v;
      vminus = cnarrow a.vminus b.vminus;
      vplus = cnarrow a.vplus b.vplus;
    }

let subset a b =
  is_bot a
  || ((not (is_bot b))
     && Itv.subset a.v b.v
     && csubset a.vminus b.vminus
     && csubset a.vplus b.vplus)

(* ------------------------------------------------------------------ *)
(* Transfer functions                                                  *)
(* ------------------------------------------------------------------ *)

(** Effect of a clock tick: the hidden clock increments, so v- shifts
    down by one and v+ up by one (x - (clock+1) = (x - clock) - 1). *)
let tick (c : t) : t =
  if is_bot c then bot
  else
    let one = Itv.int_const 1 in
    let shift i one =
      match i with
      | Itv.Bot -> Itv.Bot
      | Itv.Float _ -> Itv.sub i (Itv.float_const 1.0)
      | Itv.Int _ -> Itv.sub i one
    in
    let shift_up i =
      match i with
      | Itv.Bot -> Itv.Bot
      | Itv.Float _ -> Itv.add i (Itv.float_const 1.0)
      | Itv.Int _ -> Itv.add i one
    in
    { c with vminus = shift c.vminus one; vplus = shift_up c.vplus }

(** Addition of a constant preserves the clock offsets exactly
    (x + k - clock = (x - clock) + k). *)
let add_const (k : Itv.t) (c : t) : t =
  if is_bot c then bot
  else
    {
      v = Itv.add c.v k;
      vminus = (if Itv.is_bot c.vminus then Itv.Bot else Itv.add c.vminus k);
      vplus = (if Itv.is_bot c.vplus then Itv.Bot else Itv.add c.vplus k);
    }
