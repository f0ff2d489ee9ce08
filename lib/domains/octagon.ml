(** The octagon abstract domain (Sect. 6.2.2), after Miné [28, 29, 30].

    An octagon over a pack of variables v_0 .. v_{n-1} represents
    conjunctions of constraints (+-x +-y <= c).  The implementation uses
    the difference-bound-matrix encoding: index 2k stands for +v_k and
    2k+1 for -v_k, and entry m[i][j] bounds V_j - V_i.  The matrix is
    stored as one flat row-major [float array] of length (2n)², so a
    matrix is a single unboxed allocation and a copy is a single blit.

    Strong closure is cubic in time; to keep it off the hot path the
    octagon tracks its own closure state.  Transfer functions mark the
    variables whose constraints they touched and call
    [close_incremental], which repairs closure in O(n²) per dirty
    variable; lattice operations propagate the state so that re-closing
    an already-closed octagon costs nothing.

    Per the paper's design, the domain works in the real field: bounds
    are binary64 with upward rounding, and floating-point program
    expressions only reach it through the sound linear forms of
    Sect. 6.3, which carry their own rounding errors.  This is the
    paper's "generic way of implementing relational abstract domains on
    floating-point numbers". *)

module F = Astree_frontend
module Metrics = Astree_obs.Metrics

(* --profile probes: counter NAME, timer NAME.time *)
let c_close_full = Metrics.counter "oct.close.full"
let t_close_full = Metrics.timer "oct.close.full.time"
let c_close_incr = Metrics.counter "oct.close.incr"
let t_close_incr = Metrics.timer "oct.close.incr.time"
let c_close_skip = Metrics.counter "oct.close.skip"
let c_join = Metrics.counter "oct.join"
let t_join = Metrics.timer "oct.join.time"
let c_widen = Metrics.counter "oct.widen"
let t_widen = Metrics.timer "oct.widen.time"

type closure_state =
  | Closed
  | Dirty of int
  | Unclosed

type t = {
  pack : F.Tast.var array;    (** the variables of this pack, in order *)
  mutable bot : bool;
  n2 : int;                   (** 2 * number of pack variables *)
  m : float array;            (** flat 2n x 2n row-major bound matrix;
                                  entry (i,j) at [i*n2 + j]; +inf = top *)
  mutable closure : closure_state;
}

let bar i = i lxor 1

(* Bitmask dirty sets cover packs up to 62 variables; larger packs (far
   beyond any packing configuration) degrade to the full closure. *)
let dirty_width = 62

let mark_dirty (o : t) (k : int) : unit =
  if k >= dirty_width then o.closure <- Unclosed
  else
    match o.closure with
    | Unclosed -> ()
    | Closed -> o.closure <- Dirty (1 lsl k)
    | Dirty s -> o.closure <- Dirty (s lor (1 lsl k))

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let top (pack : F.Tast.var array) : t =
  let n = Array.length pack in
  let n2 = 2 * n in
  let m = Array.make (n2 * n2) Float.infinity in
  for i = 0 to n2 - 1 do
    m.((i * n2) + i) <- 0.0
  done;
  { pack; bot = false; n2; m; closure = Closed }

let bottom (pack : F.Tast.var array) : t = { (top pack) with bot = true }

let is_bot o = o.bot

let copy o = { o with m = Array.copy o.m }

(* Position of [v] in the pack, -1 when it is not there.  A scan: a
   pack holds at most [max_octagon_pack] variables (6 by default), and
   comparing that many ids beats hashing one. *)
let pos (o : t) (v : F.Tast.var) : int =
  let pack = o.pack and id = v.F.Tast.v_id in
  let n = Array.length pack in
  let rec go k =
    if k = n then -1
    else if (Array.unsafe_get pack k).F.Tast.v_id = id then k
    else go (k + 1)
  in
  go 0


(* ------------------------------------------------------------------ *)
(* Strong closure                                                      *)
(* ------------------------------------------------------------------ *)

(* The closure kernels below touch every matrix cell, so their rounding
   helpers are copies of [Float_utils.fsucc] and [Float_utils.add_up]
   kept inside this module: [@inline] then compiles them into the loops
   with unboxed floats even under [-opaque], where a call into another
   module boxes its float result.  A property test pins these copies
   bit for bit against [Float_utils]. *)

let[@inline] fsucc (x : float) : float =
  if Float.is_nan x then x
  else if x = Float.infinity then x
  else if x = 0.0 then Float.min_float *. epsilon_float
  else
    let bits = Int64.bits_of_float x in
    if x > 0.0 then Int64.float_of_bits (Int64.add bits 1L)
    else Int64.float_of_bits (Int64.sub bits 1L)

let[@inline] add_up (a : float) (b : float) : float =
  let r = a +. b in
  if Float.is_nan r then r
  else if r = Float.infinity then r
  else if r = Float.neg_infinity then
    if Float.abs a < Float.infinity && Float.abs b < Float.infinity then
      -.max_float
    else r
  else
    let e = (a -. (r -. b)) +. (b -. (r -. a)) in
    if Float.is_nan e then fsucc r else if e > 0.0 then fsucc r else r

(* The transfer functions' rounding helpers, copies of
   [Float_utils.fpred], [add_down], [round_up] and [round_down] for the
   same reason; the property test pins them too. *)
let[@inline] fpred (x : float) : float = -.fsucc (-.x)

let[@inline] add_down (a : float) (b : float) : float =
  let r = a +. b in
  if Float.is_nan r then r
  else if r = Float.neg_infinity then r
  else if r = Float.infinity then
    if Float.abs a < Float.infinity && Float.abs b < Float.infinity then
      max_float
    else r
  else
    let e = (a -. (r -. b)) +. (b -. (r -. a)) in
    if Float.is_nan e then fpred r else if e < 0.0 then fpred r else r

let[@inline] round_up (x : float) : float =
  if Float.is_nan x then x else fsucc x

let[@inline] round_down (x : float) : float =
  if Float.is_nan x then x else fpred x

(* One relaxation m[idx] <- min(m[idx], c), where c is [add_up a b], or
   [round_up (add_up a b /. 2)] when [half] (strengthening; [round_up]
   is [fsucc]).  The round-to-nearest value [a +. b] (halved) is tested
   first, and the directed rounding is computed only when it beats the
   current entry.  This cannot change a result: [a +. b <= add_up a b],
   halving is monotone and [fsucc x >= x], so c is never below the
   tested value and a rejected candidate could never have won.  NaN
   fails both tests alike; an overflow to -inf passes the first and
   meets the exact test. *)
let[@inline] relax (m : float array) (idx : int) ~half (a : float) (b : float)
    : unit =
  let cur = Array.unsafe_get m idx in
  let near = if half then (a +. b) /. 2.0 else a +. b in
  if near < cur then begin
    let c = if half then fsucc (add_up a b /. 2.0) else add_up a b in
    if c < cur then Array.unsafe_set m idx c
  end

(* One Floyd-Warshall pivot: m[i][j] <- min(m[i][j], m[i][k] + m[k][j]).
   All indices are in range by construction, hence the unsafe accesses. *)
let fw_pivot (m : float array) (n2 : int) (k : int) : unit =
  let krow = k * n2 in
  for i = 0 to n2 - 1 do
    let irow = i * n2 in
    let mik = Array.unsafe_get m (irow + k) in
    if mik < Float.infinity then
      for j = 0 to n2 - 1 do
        relax m (irow + j) ~half:false mik (Array.unsafe_get m (krow + j))
      done
  done

(* Octagonal strengthening:
   m[i][j] <- min(m[i][j], (m[i][bar i] + m[bar j][j]) / 2) *)
let strengthen_pass (m : float array) (n2 : int) : unit =
  for i = 0 to n2 - 1 do
    let irow = i * n2 in
    for j = 0 to n2 - 1 do
      relax m (irow + j) ~half:true
        (Array.unsafe_get m (irow + (i lxor 1)))
        (Array.unsafe_get m (((j lxor 1) * n2) + j))
    done
  done

(* Emptiness shows up as a negative diagonal entry; a consistent
   diagonal is reset to exactly 0. *)
let check_empty (o : t) : unit =
  let n2 = o.n2 and m = o.m in
  let empty = ref false in
  for i = 0 to n2 - 1 do
    let d = (i * n2) + i in
    if Array.unsafe_get m d < 0.0 then empty := true
    else Array.unsafe_set m d 0.0
  done;
  if !empty then o.bot <- true

(** Floyd–Warshall shortest paths followed by the octagonal
    strengthening step; detects emptiness on the diagonal.  All bound
    arithmetic rounds upward, which keeps the result a sound
    over-approximation. *)
let close (o : t) : unit =
  if not o.bot then begin
    Metrics.incr c_close_full;
    let t0 = Metrics.start () in
    let n2 = o.n2 and m = o.m in
    (* Mine's strong closure: one Floyd-Warshall step through both
       polarities of each variable, followed by the octagonal
       strengthening step after EACH variable (interleaving is what
       makes the result strongly closed, hence idempotent) *)
    let n = n2 / 2 in
    for v = 0 to n - 1 do
      fw_pivot m n2 (2 * v);
      fw_pivot m n2 ((2 * v) + 1);
      strengthen_pass m n2
    done;
    check_empty o;
    Metrics.stop t_close_full t0
  end;
  o.closure <- Closed

(* Incremental strong closure (Mine): precondition is that the
   submatrix obtained by deleting the rows and columns of the dirty
   variables is strongly closed — exactly what the transfer functions
   maintain by marking every variable whose constraints they touch.

   Phase 1 re-tightens the dirty rows and columns: a shortest path from
   or to a dirty pole needs at most one intermediate hop before entering
   the clean region, because the clean region is already transitively
   closed.  Phase 2 is the ordinary Floyd-Warshall step restricted to
   the dirty poles, letting the remaining paths route through them.
   Together they compute the closure in O(|dirty| * n²).  A single final
   strengthening pass then yields strong closure: over the reals,
   strengthening a closed matrix once is strongly closed (Mine), so the
   per-variable interleaving of the full algorithm is not needed here. *)
let close_incremental_set (o : t) (dirty : int) : unit =
  let n2 = o.n2 and m = o.m in
  let n = n2 / 2 in
  for v = 0 to n - 1 do
    if dirty land (1 lsl v) <> 0 then
      for p = 2 * v to (2 * v) + 1 do
        let prow = p * n2 in
        for k = 0 to n2 - 1 do
          if k <> p then begin
            let krow = k * n2 in
            (* row: m[p][j] <- min(m[p][j], m[p][k] + m[k][j]) *)
            let mpk = Array.unsafe_get m (prow + k) in
            if mpk < Float.infinity then
              for j = 0 to n2 - 1 do
                relax m (prow + j) ~half:false mpk (Array.unsafe_get m (krow + j))
              done;
            (* column: m[i][p] <- min(m[i][p], m[i][k] + m[k][p]) *)
            let mkp = Array.unsafe_get m (krow + p) in
            if mkp < Float.infinity then
              for i = 0 to n2 - 1 do
                relax m ((i * n2) + p) ~half:false
                  (Array.unsafe_get m ((i * n2) + k)) mkp
              done
          end
        done
      done
  done;
  for v = 0 to n - 1 do
    if dirty land (1 lsl v) <> 0 then begin
      fw_pivot m n2 (2 * v);
      fw_pivot m n2 ((2 * v) + 1)
    end
  done;
  strengthen_pass m n2;
  check_empty o

let popcount =
  let rec go acc s = if s = 0 then acc else go (acc + (s land 1)) (s lsr 1) in
  fun s -> go 0 s

let close_incremental (o : t) : unit =
  if o.bot then o.closure <- Closed
  else
    match o.closure with
    | Closed -> Metrics.incr c_close_skip
    | Unclosed -> close o
    | Dirty set ->
        let n = Array.length o.pack in
        if 2 * popcount set >= n then close o
        else begin
          Metrics.incr c_close_incr;
          let t0 = Metrics.start () in
          close_incremental_set o set;
          Metrics.stop t_close_incr t0;
          o.closure <- Closed
        end

(* ------------------------------------------------------------------ *)
(* Lattice operations (on closed arguments)                            *)
(* ------------------------------------------------------------------ *)

let join (a : t) (b : t) : t =
  if a.bot then copy b
  else if b.bot then copy a
  else begin
    Metrics.incr c_join;
    let t0 = Metrics.start () in
    let nn = a.n2 * a.n2 in
    let am = a.m and bm = b.m in
    let rm = Array.make nn 0.0 in
    for i = 0 to nn - 1 do
      Array.unsafe_set rm i
        (Float.max (Array.unsafe_get am i) (Array.unsafe_get bm i))
    done;
    (* the pointwise max of two (strongly) closed matrices is again
       (strongly) closed — the closure inequalities are preserved by max
       because bound addition is monotone — so the join of two closed
       octagons needs no re-closure at all *)
    let closure =
      match (a.closure, b.closure) with
      | Closed, Closed -> Closed
      | _ -> Unclosed
    in
    Metrics.stop t_join t0;
    { a with m = rm; bot = false; closure }
  end

let meet (a : t) (b : t) : t =
  if a.bot then copy a
  else if b.bot then copy b
  else begin
    let nn = a.n2 * a.n2 in
    let rm = Array.make nn 0.0 in
    for i = 0 to nn - 1 do
      rm.(i) <- Float.min a.m.(i) b.m.(i)
    done;
    let r = { a with m = rm; bot = false; closure = Unclosed } in
    close r;
    r
  end

(** Widening: an unstable bound jumps straight to +infinity (the
    standard octagon widening of Mine [29]).  Since the transfer
    functions rebuild relational constraints at every assignment, a
    killed bound is re-derived on the next iterate if it is genuinely
    invariant; jumping through intermediate thresholds would instead let
    rounding-noise creep drag whole constraint families up the ladder.
    The [thresholds] parameter is kept for interface uniformity with the
    other domains.  The left argument must not be closed after widening
    is engaged, per the classical octagon widening soundness condition;
    the result is therefore marked [Unclosed] and stays that way until a
    transfer function next needs a closure. *)
let widen ~(thresholds : Thresholds.t) (a : t) (b : t) : t =
  ignore thresholds;
  if a.bot then copy b
  else if b.bot then copy a
  else begin
    Metrics.incr c_widen;
    let t0 = Metrics.start () in
    let nn = a.n2 * a.n2 in
    let rm = Array.copy a.m in
    for i = 0 to nn - 1 do
      if b.m.(i) > a.m.(i) then rm.(i) <- Float.infinity
    done;
    Metrics.stop t_widen t0;
    { a with m = rm; bot = false; closure = Unclosed }
  end

let narrow (a : t) (b : t) : t =
  if a.bot || b.bot then bottom a.pack
  else begin
    let nn = a.n2 * a.n2 in
    let rm = Array.copy a.m in
    for i = 0 to nn - 1 do
      if a.m.(i) = Float.infinity then rm.(i) <- b.m.(i)
    done;
    { a with m = rm; bot = false; closure = Unclosed }
  end

let subset (a : t) (b : t) : bool =
  a.bot
  || (not b.bot)
     && (let nn = a.n2 * a.n2 in
         let ok = ref true in
         for i = 0 to nn - 1 do
           if Array.unsafe_get a.m i > Array.unsafe_get b.m i then ok := false
         done;
         !ok)

let equal (a : t) (b : t) : bool =
  (a.bot && b.bot) || ((not a.bot) && (not b.bot) && a.m = b.m)

(* ------------------------------------------------------------------ *)
(* Interval extraction and injection                                   *)
(* ------------------------------------------------------------------ *)

(** Hull of the variable at position k: [-m[2k][2k+1]/2, m[2k+1][2k]/2]. *)
let lower (o : t) (k : int) : float =
  let i = 2 * k in
  round_down (-.(o.m.((i * o.n2) + bar i) /. 2.0))

let upper (o : t) (k : int) : float =
  let i = 2 * k in
  round_up (o.m.((bar i * o.n2) + i) /. 2.0)

let get_bounds (o : t) (v : F.Tast.var) : (float * float) option =
  if o.bot then Some (1.0, -1.0)
  else
    let k = pos o v in
    if k < 0 then None else Some (lower o k, upper o k)

(* Meet the variable at position k with [lo, hi]. *)
let set_bounds_at (o : t) (k : int) (lo : float) (hi : float) : unit =
  let n2 = o.n2 in
  let i = 2 * k in
  let up = (bar i * n2) + i and dn = (i * n2) + bar i in
  if hi < Float.infinity then begin
    let c = Float_utils.mul_up 2.0 hi in
    if c < o.m.(up) then begin
      o.m.(up) <- c;
      mark_dirty o k
    end
  end;
  if lo > Float.neg_infinity then begin
    let c = Float_utils.mul_up (-2.0) lo in
    if c < o.m.(dn) then begin
      o.m.(dn) <- c;
      mark_dirty o k
    end
  end

(** Constrain v to [lo, hi] (meet). *)
let set_bounds (o : t) (v : F.Tast.var) ((lo, hi) : float * float) : unit =
  if not o.bot then
    let k = pos o v in
    if k >= 0 then set_bounds_at o k lo hi

(** Bounds on the difference x - y, when both are in the pack. *)
let get_diff_bounds (o : t) (x : F.Tast.var) (y : F.Tast.var) :
    (float * float) option =
  if o.bot then None
  else
    let kx = pos o x and ky = pos o y in
    if kx < 0 || ky < 0 || kx = ky then None
    else
      (* x - y <= m[2ky][2kx]; y - x <= m[2kx][2ky] *)
      let n2 = o.n2 in
      let hi = o.m.((2 * ky * n2) + (2 * kx)) in
      let lo = -.o.m.((2 * kx * n2) + (2 * ky)) in
      if lo > Float.neg_infinity || hi < Float.infinity then Some (lo, hi)
      else None

(* Remove every constraint involving the variable at position k
   (projection).  A projection of a strongly closed matrix is still
   strongly closed, so forgetting never dirties the octagon — it can
   only remove the variable from the dirty set. *)
let forget_at (o : t) (k : int) : unit =
  let n2 = o.n2 in
  let i0 = 2 * k and i1 = (2 * k) + 1 in
  for j = 0 to n2 - 1 do
    if j <> i0 then begin
      o.m.((i0 * n2) + j) <- Float.infinity;
      o.m.((j * n2) + i0) <- Float.infinity
    end;
    if j <> i1 then begin
      o.m.((i1 * n2) + j) <- Float.infinity;
      o.m.((j * n2) + i1) <- Float.infinity
    end
  done;
  o.m.((i0 * n2) + i0) <- 0.0;
  o.m.((i1 * n2) + i1) <- 0.0;
  if k < dirty_width then begin
    match o.closure with
    | Dirty s ->
        let s' = s land lnot (1 lsl k) in
        o.closure <- (if s' = 0 then Closed else Dirty s')
    | Closed | Unclosed -> ()
  end

(** Remove every constraint involving v (projection). *)
let forget (o : t) (v : F.Tast.var) : unit =
  if not o.bot then
    let k = pos o v in
    if k >= 0 then forget_at o k

(* Add constraint V_j - V_i <= c, maintaining coherence.  Every touched
   entry lies in the rows/columns of variable j/2, so marking that one
   variable dirty is enough for the incremental closure. *)
let add_constraint (o : t) i j c =
  let n2 = o.n2 in
  let ij = (i * n2) + j in
  if c < o.m.(ij) then begin
    o.m.(ij) <- c;
    let ji = (bar j * n2) + bar i in
    if c < o.m.(ji) then o.m.(ji) <- c;
    mark_dirty o (j lsr 1)
  end

(** Constrain x - y <= c  (x, y in the pack). *)
let add_diff_le (o : t) (x : F.Tast.var) (y : F.Tast.var) (c : float) : unit =
  if not o.bot then
    let kx = pos o x and ky = pos o y in
    if kx >= 0 && ky >= 0 && kx <> ky then
      (* x - y = V_{2kx} - V_{2ky} <= c *)
      add_constraint o (2 * ky) (2 * kx) c

(** Constrain x + y <= c. *)
let add_sum_le (o : t) (x : F.Tast.var) (y : F.Tast.var) (c : float) : unit =
  if not o.bot then
    let kx = pos o x and ky = pos o y in
    if kx >= 0 && ky >= 0 && kx <> ky then
      (* x + y = V_{2kx} - V_{2ky+1} <= c *)
      add_constraint o ((2 * ky) + 1) (2 * kx) c

(** Constrain -x - y <= c. *)
let add_neg_sum_le (o : t) (x : F.Tast.var) (y : F.Tast.var) (c : float) : unit
    =
  if not o.bot then
    let kx = pos o x and ky = pos o y in
    if kx >= 0 && ky >= 0 && kx <> ky then
      (* -x - y = V_{2kx+1} - V_{2ky} <= c *)
      add_constraint o (2 * ky) ((2 * kx) + 1) c

(* ------------------------------------------------------------------ *)
(* Transfer functions                                                  *)
(* ------------------------------------------------------------------ *)

(* An oracle gives float hulls for variables outside the pack. *)
type oracle = F.Tast.var -> float * float

(* The hull of [v] in a non-bottom octagon: its pack bounds, which may
   be tighter than the oracle's, met with the oracle's; the oracle's
   alone outside the pack. *)
let hull (o : t) (oracle : oracle) (v : F.Tast.var) : Linear_form.coeff =
  let k = pos o v in
  let olo, ohi = oracle v in
  if k < 0 then { Linear_form.lo = olo; hi = ohi }
  else
    { Linear_form.lo = Float.max (lower o k) olo;
      hi = Float.min (upper o k) ohi }

(* Exact self-update x := x + [c, d]: every constraint involving x
   shifts by the increment, preserving all relational information
   (what keeps loop counters related to their accumulators). *)
let shift_var (o : t) (k : int) (c : float) (d : float) : unit =
  let n2 = o.n2 in
  let i0 = 2 * k and i1 = (2 * k) + 1 in
  let su = Float_utils.sub_up and au = Float_utils.add_up in
  for j = 0 to n2 - 1 do
    if j <> i0 && j <> i1 then begin
      (* V_j - x <= m[i0][j]  becomes  <= m - c *)
      o.m.((i0 * n2) + j) <- su o.m.((i0 * n2) + j) c;
      (* x - V_j <= m[j][i0]  becomes  <= m + d *)
      o.m.((j * n2) + i0) <- au o.m.((j * n2) + i0) d;
      (* V_j + x <= m[i1][j]  becomes  <= m + d *)
      o.m.((i1 * n2) + j) <- au o.m.((i1 * n2) + j) d;
      (* -x - V_j <= m[j][i1]  becomes  <= m - c *)
      o.m.((j * n2) + i1) <- su o.m.((j * n2) + i1) c
    end
  done;
  (* unary bounds: -2x <= m[i0][i1] becomes <= m - 2c; 2x <= m[i1][i0]
     becomes <= m + 2d *)
  o.m.((i0 * n2) + i1) <- su o.m.((i0 * n2) + i1) (Float_utils.mul_down 2.0 c);
  o.m.((i1 * n2) + i0) <- au o.m.((i1 * n2) + i0) (Float_utils.mul_up 2.0 d);
  mark_dirty o k

(* 1 for the coefficient [1, 1], -1 for [-1, -1], else 0 *)
let unit_sign (k : Linear_form.coeff) : int =
  if k.lo = 1.0 && k.hi = 1.0 then 1
  else if k.lo = -1.0 && k.hi = -1.0 then -1
  else 0

(* Term i of the form in the pre-state: bounds of the product of its
   coefficient with its variable's hull, at [2i] and [2i+1]. *)
let products (o : t) (oracle : oracle) (vs : F.Tast.var array)
    (ks : Linear_form.coeff array) : float array =
  let n = Array.length vs in
  let p = Array.create_float (2 * n) in
  for i = 0 to n - 1 do
    let q = Linear_form.coeff_mul ks.(i) (hull o oracle vs.(i)) in
    p.(2 * i) <- q.Linear_form.lo;
    p.((2 * i) + 1) <- q.Linear_form.hi
  done;
  p

(** Abstract assignment [x := form].  The transfer function is the
    paper's "smart" one: for every unit-coefficient variable y of the
    form, the rest of the form is evaluated to an interval [c, d] and the
    relational constraints c <= x -+ y <= d are synthesized; other
    variables only contribute their interval.  This is what proves
    L <= X in the paper's rate-limiter example. *)
let assign (o : t) (oracle : oracle) (x : F.Tast.var) (form : Linear_form.t) :
    unit =
  let kx = if o.bot then -1 else pos o x in
  if kx >= 0 then begin
    let terms = form.Linear_form.terms and cst = form.Linear_form.const in
    let n = Linear_form.VarMap.cardinal terms in
    let vs = Array.make n x and ks = Array.make n Linear_form.coeff_zero in
    ignore
      (Linear_form.VarMap.fold
         (fun v k i ->
           vs.(i) <- v;
           ks.(i) <- k;
           i + 1)
         terms 0);
    if n = 1 && vs.(0).F.Tast.v_id = x.F.Tast.v_id && unit_sign ks.(0) = 1
    then (* x := x + [c, d] *)
      shift_var o kx cst.lo cst.hi
    else begin
      (* every term is read in the pre-state, before x is forgotten:
         x may occur in the form *)
      let p = products o oracle vs ks in
      let vlo = ref cst.lo and vhi = ref cst.hi in
      for i = 0 to n - 1 do
        vlo := add_down !vlo p.(2 * i);
        vhi := add_up !vhi p.((2 * i) + 1)
      done;
      forget_at o kx;
      set_bounds_at o kx !vlo !vhi;
      for j = 0 to n - 1 do
        let y = vs.(j) in
        let sign = unit_sign ks.(j) in
        let ky =
          if sign = 0 || y.F.Tast.v_id = x.F.Tast.v_id then -1 else pos o y
        in
        if ky >= 0 then begin
          (* the rest [form -+ y] in [c, d], evaluated in place: the
             form's other non-zero terms (a coefficient plus 0 has the
             same products), and the constant plus [-0.] for +y, plus
             [0.] for -y, as [Linear_form.sub]/[add] would compute it *)
          let z = if sign > 0 then -0.0 else 0.0 in
          let c = ref (add_down cst.lo z) and d = ref (add_up cst.hi z) in
          for i = 0 to n - 1 do
            if i <> j && not (Linear_form.coeff_is_zero ks.(i)) then begin
              c := add_down !c p.(2 * i);
              d := add_up !d p.((2 * i) + 1)
            end
          done;
          let c = !c and d = !d in
          if sign > 0 then begin
            (* x = y + rest: c <= x - y <= d *)
            if d < Float.infinity then add_constraint o (2 * ky) (2 * kx) d;
            if c > Float.neg_infinity then
              add_constraint o (2 * kx) (2 * ky) (-.c)
          end
          else begin
            (* x = -y + rest: c <= x + y <= d *)
            if d < Float.infinity then
              add_constraint o ((2 * ky) + 1) (2 * kx) d;
            if c > Float.neg_infinity then
              add_constraint o (2 * ky) ((2 * kx) + 1) (-.c)
          end
        end
      done
    end;
    close_incremental o
  end

(* Lower bound of the form without its terms on the variable ids [skip1]
   and [skip2], from the lower constant [lo]: the rest of a guard form
   after [Linear_form.sub]/[add] of its unit pack terms, evaluated in
   place. *)
type acc = { mutable acc : float }

let rest_lo (o : t) (oracle : oracle) (form : Linear_form.t) ~skip1 ~skip2
    (lo : float) : float =
  let r = { acc = lo } in
  Linear_form.VarMap.iter
    (fun v k ->
      let id = v.F.Tast.v_id in
      if id <> skip1 && id <> skip2 && not (Linear_form.coeff_is_zero k) then
        r.acc <-
          add_down r.acc (Linear_form.coeff_mul k (hull o oracle v)).lo)
    form.Linear_form.terms;
  r.acc

(** Abstract guard [form <= 0].  Octagonal constraints are extracted when
    the form involves one or two pack variables with unit coefficients;
    otherwise only interval information is used. *)
let guard_le_zero (o : t) (oracle : oracle) (form : Linear_form.t) : unit =
  if not o.bot then begin
    (* the pack terms of the form, in its order: (id, position, sign) *)
    let in_pack =
      Linear_form.VarMap.fold
        (fun v k acc ->
          let kv = pos o v in
          if kv < 0 then acc else (v.F.Tast.v_id, kv, unit_sign k) :: acc)
        form.Linear_form.terms []
    in
    (* the rest's constant: plus [-0.] per +x removed, [0.] per -x *)
    let lo = form.Linear_form.const.lo in
    let shift sign lo = add_down lo (if sign > 0 then -0.0 else 0.0) in
    (match in_pack with
    | [ (x, kx, sx) ] when sx <> 0 ->
        let c = rest_lo o oracle form ~skip1:x ~skip2:(-1) (shift sx lo) in
        if sx > 0 then begin
          (* x + rest <= 0: x <= -(lower bound of rest) *)
          let new_hi = round_up (-.c) in
          if new_hi < upper o kx then
            set_bounds_at o kx Float.neg_infinity new_hi
        end
        else begin
          (* -x + rest <= 0: x >= lower bound of rest *)
          let new_lo = round_down c in
          if new_lo > Float.neg_infinity then
            set_bounds_at o kx new_lo Float.infinity
        end
    | [ (y, ky, sy); (x, kx, sx) ] when sx <> 0 && sy <> 0 ->
        (* (the fold conses: the form's first pack variable, x, comes
           last) sx.x + sy.y + rest <= 0 ==> sx.x + sy.y <= -c *)
        let c =
          rest_lo o oracle form ~skip1:x ~skip2:y (shift sy (shift sx lo))
        in
        let bound = round_up (-.c) in
        if bound < Float.infinity then
          if sx > 0 && sy > 0 then (* x + y *)
            add_constraint o ((2 * ky) + 1) (2 * kx) bound
          else if sx > 0 then (* x - y *)
            add_constraint o (2 * ky) (2 * kx) bound
          else if sy > 0 then (* y - x *)
            add_constraint o (2 * kx) (2 * ky) bound
          else (* -x - y *)
            add_constraint o (2 * ky) ((2 * kx) + 1) bound
    | _ -> ());
    close_incremental o
  end

(* ------------------------------------------------------------------ *)
(* Pretty-printing and accounting                                      *)
(* ------------------------------------------------------------------ *)

(** Number of non-trivial (finite, off-diagonal) constraints, split into
    (sum constraints, difference constraints) — matching the paper's
    invariant census of additive vs subtractive octagonal assertions
    (Sect. 9.4.1). *)
let count_constraints (o : t) : int * int =
  if o.bot then (0, 0)
  else begin
    let n2 = o.n2 in
    let sums = ref 0 and diffs = ref 0 in
    for i = 0 to n2 - 1 do
      for j = 0 to n2 - 1 do
        if i <> j && i / 2 <> j / 2 && o.m.((i * n2) + j) < Float.infinity
        then
          (* V_j - V_i <= c: a difference if both have the same parity
             polarity, a sum otherwise *)
          if i land 1 = j land 1 then incr sums else incr diffs
      done
    done;
    (!sums / 2, !diffs / 2)
    (* each constraint is stored twice by coherence *)
  end

(** True when the octagon carries at least one relational constraint
    (used by the packing-usefulness optimization, Sect. 7.2.2). *)
let has_relational_info (o : t) : bool =
  (not o.bot)
  &&
  let n2 = o.n2 in
  let found = ref false in
  for i = 0 to n2 - 1 do
    for j = 0 to n2 - 1 do
      if i / 2 <> j / 2 && o.m.((i * n2) + j) < Float.infinity then
        found := true
    done
  done;
  !found

let pp ppf (o : t) =
  if o.bot then Fmt.string ppf "_|_"
  else begin
    let n = Array.length o.pack in
    let n2 = o.n2 in
    let first = ref true in
    for k = 0 to n - 1 do
      match get_bounds o o.pack.(k) with
      | Some (lo, hi) when lo > Float.neg_infinity || hi < Float.infinity ->
          if not !first then Fmt.string ppf ", ";
          first := false;
          Fmt.pf ppf "%s in [%g, %g]" o.pack.(k).F.Tast.v_name lo hi
      | _ -> ()
    done;
    for i = 0 to (2 * n) - 1 do
      for j = 0 to (2 * n) - 1 do
        if i / 2 < j / 2 && o.m.((i * n2) + j) < Float.infinity then begin
          if not !first then Fmt.string ppf ", ";
          first := false;
          let vi = o.pack.(i / 2).F.Tast.v_name
          and vj = o.pack.(j / 2).F.Tast.v_name in
          let si = if i land 1 = 0 then "-" else "+" in
          let sj = if j land 1 = 0 then "+" else "-" in
          Fmt.pf ppf "%s%s %s%s <= %g" sj vj si vi o.m.((i * n2) + j)
        end
      done
    done;
    if !first then Fmt.string ppf "T"
  end
