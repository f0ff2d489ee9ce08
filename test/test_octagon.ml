(* Octagon domain tests (Sect. 6.2.2). *)

module F = Astree_frontend
module D = Astree_domains
module O = D.Octagon
module LF = D.Linear_form
module Metrics = Astree_obs.Metrics

(* the octagon's closure probes, read from the registry by name *)
let close_full = Metrics.counter "oct.close.full"
let close_incr = Metrics.counter "oct.close.incr"

let mkvar =
  let next = ref 1000 in
  fun name ->
    incr next;
    {
      F.Tast.v_id = !next;
      v_name = name;
      v_orig = name;
      v_ty = F.Ctypes.t_float;
      v_kind = F.Tast.Kglobal;
      v_volatile = false;
      v_loc = F.Loc.dummy;
    }

let no_oracle _ = (Float.neg_infinity, Float.infinity)

let bounded lo hi (v : F.Tast.var) (w : F.Tast.var) =
  if F.Tast.Var.equal v w then (lo, hi) else (Float.neg_infinity, Float.infinity)

let test_top_bot () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  Alcotest.(check bool) "top not bot" false (O.is_bot o);
  let b = O.bottom [| x; y |] in
  Alcotest.(check bool) "bottom" true (O.is_bot b);
  Alcotest.(check bool) "bot subset top" true (O.subset b o);
  Alcotest.(check bool) "top not subset bot" false (O.subset o b)

let test_set_get_bounds () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.set_bounds o x (-2.0, 5.0);
  match O.get_bounds o x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "lo" true (lo <= -2.0 && lo >= -2.0001);
      Alcotest.(check bool) "hi" true (hi >= 5.0 && hi <= 5.0001)
  | None -> Alcotest.fail "no bounds"

let test_diff_constraint_closure () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.set_bounds o y (0.0, 10.0);
  O.add_diff_le o x y 3.0 (* x - y <= 3 *);
  O.close o;
  (match O.get_bounds o x with
  | Some (_, hi) -> Alcotest.(check bool) "x <= 13" true (hi <= 13.001)
  | None -> Alcotest.fail "no bounds");
  match O.get_diff_bounds o x y with
  | Some (_, hi) -> Alcotest.(check bool) "diff hi" true (hi <= 3.001)
  | None -> Alcotest.fail "no diff bounds"

let test_sum_constraint () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.add_sum_le o x y 10.0;
  O.set_bounds o y (2.0, 4.0);
  O.close o;
  match O.get_bounds o x with
  | Some (_, hi) -> Alcotest.(check bool) "x <= 8" true (hi <= 8.001)
  | None -> Alcotest.fail "no bounds"

let test_emptiness_detection () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.add_diff_le o x y (-5.0) (* x - y <= -5, so x < y *);
  O.add_diff_le o y x (-5.0) (* y - x <= -5, so y < x: contradiction *);
  O.close o;
  Alcotest.(check bool) "empty" true (O.is_bot o)

let test_forget () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.set_bounds o x (0.0, 1.0);
  O.add_sum_le o x y 10.0;
  O.close o;
  O.forget o x;
  match O.get_bounds o x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "unbounded" true
        (lo = Float.neg_infinity && hi = Float.infinity)
  | None -> Alcotest.fail "x missing"

let test_join_hull () =
  let x = mkvar "x" in
  let o1 = O.top [| x |] and o2 = O.top [| x |] in
  O.set_bounds o1 x (0.0, 1.0);
  O.set_bounds o2 x (5.0, 8.0);
  let j = O.join o1 o2 in
  match O.get_bounds j x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "hull" true (lo <= 0.0 && hi >= 8.0 && hi < 9.0)
  | None -> Alcotest.fail "missing"

let test_meet () =
  let x = mkvar "x" in
  let o1 = O.top [| x |] and o2 = O.top [| x |] in
  O.set_bounds o1 x (0.0, 10.0);
  O.set_bounds o2 x (5.0, 20.0);
  let m = O.meet o1 o2 in
  match O.get_bounds m x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "meet" true (lo >= 4.99 && hi <= 10.01)
  | None -> Alcotest.fail "missing"

let test_assign_relational () =
  (* the paper's example: after r := v - lim and the guard r >= 1,
     closure must bound lim from v's range *)
  let r = mkvar "r" and v = mkvar "v" and lim = mkvar "lim" in
  let o = O.top [| r; v; lim |] in
  let oracle w =
    if F.Tast.Var.equal w v then (-100.0, 100.0)
    else if F.Tast.Var.equal w lim then (-100.0, 100.0)
    else (Float.neg_infinity, Float.infinity)
  in
  O.assign o oracle r LF.(sub (of_var v) (of_var lim));
  O.guard_le_zero o oracle LF.(sub (of_interval 1.0 1.0) (of_var r));
  match O.get_bounds o lim with
  | Some (_, hi) -> Alcotest.(check bool) "lim <= 99" true (hi <= 99.01)
  | None -> Alcotest.fail "missing"

let test_assign_self_update () =
  let x = mkvar "x" in
  let o = O.top [| x |] in
  O.set_bounds o x (0.0, 10.0);
  O.close o;
  (* x := x + 1 evaluated through the octagon's own bounds *)
  O.assign o no_oracle x LF.(add (of_var x) (of_interval 1.0 1.0));
  match O.get_bounds o x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "shifted" true (lo >= 0.99 && hi <= 11.01)
  | None -> Alcotest.fail "missing"

let test_widen_thresholds () =
  let x = mkvar "x" in
  let o1 = O.top [| x |] and o2 = O.top [| x |] in
  O.set_bounds o1 x (0.0, 10.0);
  O.set_bounds o2 x (0.0, 12.0);
  (* the octagon uses the standard Mine widening: an unstable bound jumps
     straight to +oo (constraints are rebuilt by the transfer functions,
     so genuine invariants are re-derived on the next iterate) *)
  let w = O.widen ~thresholds:(D.Thresholds.of_list [ 100.0 ]) o1 o2 in
  (match O.get_bounds w x with
  | Some (lo, hi) ->
      Alcotest.(check bool) "unstable side to +oo" true (hi = Float.infinity);
      Alcotest.(check bool) "stable side kept" true (lo >= -0.001)
  | None -> Alcotest.fail "missing");
  (* a stable bound is untouched *)
  let o3 = O.top [| x |] in
  O.set_bounds o3 x (2.0, 8.0);
  let w2 = O.widen ~thresholds:D.Thresholds.default o1 o3 in
  match O.get_bounds w2 x with
  | Some (_, hi) -> Alcotest.(check bool) "kept" true (hi <= 10.001)
  | None -> Alcotest.fail "missing"

let test_widen_stable_side () =
  let x = mkvar "x" in
  let o1 = O.top [| x |] and o2 = O.top [| x |] in
  O.set_bounds o1 x (0.0, 10.0);
  O.set_bounds o2 x (2.0, 8.0);
  let w = O.widen ~thresholds:D.Thresholds.default o1 o2 in
  Alcotest.(check bool) "stable" true (O.subset o1 w && O.subset o2 w)

let test_guard_two_vars () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.set_bounds o y (0.0, 5.0);
  O.close o;
  (* guard x + y <= 3 *)
  O.guard_le_zero o (bounded 0.0 5.0 y)
    LF.(sub (add (of_var x) (of_var y)) (of_interval 3.0 3.0));
  match O.get_bounds o x with
  | Some (_, hi) -> Alcotest.(check bool) "x <= 3" true (hi <= 3.01)
  | None -> Alcotest.fail "missing"

let test_count_constraints () =
  let x = mkvar "x" and y = mkvar "y" in
  let o = O.top [| x; y |] in
  O.add_sum_le o x y 5.0;
  O.add_diff_le o x y 2.0;
  let sums, diffs = O.count_constraints o in
  Alcotest.(check bool) "counts" true (sums >= 1 && diffs >= 1)

(* property: closure is sound on random boxes + constraints, checked by
   sampling concrete points *)
let prop_closure_sound =
  QCheck.Test.make ~name:"strong closure preserves concrete points"
    QCheck.(
      quad (pair (float_range (-50.) 0.) (float_range 0. 50.))
        (pair (float_range (-50.) 0.) (float_range 0. 50.))
        (float_range (-20.) 20.) (float_range (-20.) 20.))
    (fun ((xlo, xhi), (ylo, yhi), c, px) ->
      let x = mkvar "x" and y = mkvar "y" in
      let o = O.top [| x; y |] in
      O.set_bounds o x (xlo, xhi);
      O.set_bounds o y (ylo, yhi);
      O.add_diff_le o x y c;
      O.close o;
      (* pick a concrete point satisfying the constraints, if any *)
      let px = Float.max xlo (Float.min xhi px) in
      let py_min = Float.max ylo (px -. c) in
      if py_min > yhi then true (* no witness on this slice *)
      else
        let py = py_min in
        if O.is_bot o then false
        else
          match (O.get_bounds o x, O.get_bounds o y) with
          | Some (lx, hx), Some (ly, hy) ->
              lx <= px && px <= hx && ly <= py && py <= hy
          | _ -> false)

(* ------------------------------------------------------------------ *)
(* Incremental closure (PR 3)                                          *)
(* ------------------------------------------------------------------ *)

(* Random DBMs + random touched-variable updates: [close_incremental]
   must agree with the full [close] — same matrix, same bottom
   detection.  All generated bounds are small integers, so every bound
   computed by either algorithm is a dyadic rational far inside the
   binary64 range and the directed-rounding arithmetic is EXACT: both
   algorithms then compute the unique real strong closure, and the
   comparison below is bit-for-bit. *)
let prop_incremental_equiv =
  let gen =
    QCheck.Gen.(
      int_range 3 5 >>= fun n ->
      let var = int_bound (n - 1) in
      let base_c =
        quad (int_bound 3) var var (pair (int_range (-20) 20) (int_range (-20) 20))
      in
      let upd =
        quad (int_bound 4) var var (pair (int_range (-8) 8) (int_range (-8) 8))
      in
      list_size (int_range 0 12) base_c >>= fun base ->
      list_size (int_range 1 2) upd >>= fun upds -> return (n, base, upds))
  in
  QCheck.Test.make ~count:500
    ~name:"close_incremental = full close (exact dyadic inputs)"
    (QCheck.make gen)
    (fun (n, base, upds) ->
      let pack = Array.init n (fun i -> mkvar (Printf.sprintf "v%d" i)) in
      let o = O.top pack in
      List.iter
        (fun (k, i, j, (c, d)) ->
          let x = pack.(i) and y = pack.(j) in
          let c = float_of_int c and d = float_of_int d in
          match k with
          | 0 -> O.set_bounds o x (Float.min c d, Float.max c d)
          | 1 -> O.add_diff_le o x y c
          | 2 -> O.add_sum_le o x y c
          | _ -> O.add_neg_sum_le o x y c)
        base;
      O.close o;
      let a = O.copy o and b = O.copy o in
      let apply t (k, i, j, (c, d)) =
        let x = pack.(i) and y = pack.(j) in
        let cf = float_of_int c and df = float_of_int d in
        match k with
        | 0 -> O.set_bounds t x (Float.min cf df, Float.max cf df)
        | 1 -> O.add_diff_le t x y cf
        | 2 -> O.add_sum_le t x y cf
        | 3 -> O.shift_var t i (Float.min cf df) (Float.max cf df)
        | _ -> O.forget t x
      in
      List.iter (apply a) upds;
      List.iter (apply b) upds;
      O.close_incremental a;
      (* the full cubic pass on an identical copy *)
      O.close b;
      O.is_bot a = O.is_bot b
      && (O.is_bot a || (a.O.m = b.O.m && a.O.closure = O.Closed)))

(* Reference closures: the kernels as plain loops over
   [Float_utils.add_up] and [Float_utils.round_up], with no
   round-to-nearest pre-test.  [O.close] and [O.close_incremental] must
   reproduce them bit for bit on any matrix, closed or not, which pins
   both the octagon module's private rounding copies and its pre-test. *)
module Ref = struct
  let add_up = D.Float_utils.add_up

  let pivot m n2 k =
    for i = 0 to n2 - 1 do
      let mik = m.((i * n2) + k) in
      if mik < Float.infinity then
        for j = 0 to n2 - 1 do
          let via = add_up mik m.((k * n2) + j) in
          if via < m.((i * n2) + j) then m.((i * n2) + j) <- via
        done
    done

  let strengthen m n2 =
    for i = 0 to n2 - 1 do
      for j = 0 to n2 - 1 do
        let s =
          D.Float_utils.round_up
            (add_up m.((i * n2) + (i lxor 1)) m.(((j lxor 1) * n2) + j) /. 2.0)
        in
        if s < m.((i * n2) + j) then m.((i * n2) + j) <- s
      done
    done

  (* returns the bottom verdict *)
  let check_empty m n2 =
    let empty = ref false in
    for i = 0 to n2 - 1 do
      if m.((i * n2) + i) < 0.0 then empty := true else m.((i * n2) + i) <- 0.0
    done;
    !empty

  let close m n2 =
    for v = 0 to (n2 / 2) - 1 do
      pivot m n2 (2 * v);
      pivot m n2 ((2 * v) + 1);
      strengthen m n2
    done;
    check_empty m n2

  let close_set m n2 dirty =
    let dirty_var v = dirty land (1 lsl v) <> 0 in
    for v = 0 to (n2 / 2) - 1 do
      if dirty_var v then
        for p = 2 * v to (2 * v) + 1 do
          for k = 0 to n2 - 1 do
            if k <> p then begin
              let mpk = m.((p * n2) + k) in
              if mpk < Float.infinity then
                for j = 0 to n2 - 1 do
                  let via = add_up mpk m.((k * n2) + j) in
                  if via < m.((p * n2) + j) then m.((p * n2) + j) <- via
                done;
              let mkp = m.((k * n2) + p) in
              if mkp < Float.infinity then
                for i = 0 to n2 - 1 do
                  let via = add_up m.((i * n2) + k) mkp in
                  if via < m.((i * n2) + p) then m.((i * n2) + p) <- via
                done
            end
          done
        done
    done;
    for v = 0 to (n2 / 2) - 1 do
      if dirty_var v then begin
        pivot m n2 (2 * v);
        pivot m n2 ((2 * v) + 1)
      end
    done;
    strengthen m n2;
    check_empty m n2
end

(* Matrix entries that make the rounding matter: non-dyadic ratios,
   signed zeros, infinities, subnormals, values near +-max_float (two of
   which overflow to -inf and round to -max_float), arbitrary doubles. *)
let gen_entry =
  let tiny = Float.min_float *. epsilon_float in
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (a, b) -> float_of_int a /. float_of_int b)
            (pair (int_range (-2000) 2000) (int_range 1 97)) );
        (3, return Float.infinity);
        ( 2,
          oneofl
            [
              0.0; -0.0; Float.neg_infinity; tiny; -.tiny; Float.min_float;
              Float.min_float /. 3.0; -.Float.min_float /. 7.0; max_float;
              -.max_float; max_float /. 1.5; -.max_float /. 1.5;
              Float.pred max_float; -.Float.pred max_float;
            ] );
        (1, map (fun k -> float_of_int k *. tiny) (int_range (-1000) 1000));
        (1, map (fun x -> x *. 1e307) (float_range (-17.9) 17.9));
        (1, float);
      ])

(* A random matrix over 1..6 variables, mostly zero on the diagonal, and
   a nonempty dirty set. *)
let gen_dbm =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    let n2 = 2 * n in
    array_repeat (n2 * n2) gen_entry >>= fun m ->
    array_repeat n2 (int_bound 3) >>= fun diag ->
    int_range 1 ((1 lsl n) - 1) >>= fun dirty ->
    Array.iteri (fun i z -> if z > 0 then m.((i * n2) + i) <- 0.0) diag;
    return (n, m, dirty))

let print_dbm (n, m, dirty) =
  Printf.sprintf "n=%d dirty=%#x [%s]" n dirty
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") m)))

let bits_equal a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let popcount s =
  let rec go acc s = if s = 0 then acc else go (acc + (s land 1)) (s lsr 1) in
  go 0 s

let prop_kernels_bitwise =
  QCheck.Test.make ~count:1000
    ~name:"kernels match reference bitwise"
    (QCheck.make ~print:print_dbm gen_dbm)
    (fun (n, m, dirty) ->
      let pack = Array.init n (fun i -> mkvar (Printf.sprintf "b%d" i)) in
      let n2 = 2 * n in
      let load closure =
        let o = O.top pack in
        Array.blit m 0 o.O.m 0 (n2 * n2);
        o.O.closure <- closure;
        o
      in
      let full = load O.Unclosed and incr = load (O.Dirty dirty) in
      O.close full;
      O.close_incremental incr;
      let rfull = Array.copy m and rincr = Array.copy m in
      let rfull_bot = Ref.close rfull n2 in
      (* close_incremental falls back to the full pass on large sets *)
      let rincr_bot =
        if 2 * popcount dirty >= n then Ref.close rincr n2
        else Ref.close_set rincr n2 dirty
      in
      bits_equal full.O.m rfull
      && O.is_bot full = rfull_bot
      && bits_equal incr.O.m rincr
      && O.is_bot incr = rincr_bot)

(* The assignment and guard transfer functions as they were before they
   read bounds by pack position and evaluated rest forms in place: a
   hashed variable index, [Linear_form.sub]/[add] maps for every rest,
   and the evaluator with four products per coefficient, polymorphic
   min/max and a tuple per term.  [O.assign] and [O.guard_le_zero] must
   reproduce them bit for bit. *)
module Ref_transfer = struct
  let coeff_mul (a : LF.coeff) (b : LF.coeff) : LF.coeff =
    let module U = D.Float_utils in
    let p1l = U.mul_down a.lo b.lo and p2l = U.mul_down a.lo b.hi
    and p3l = U.mul_down a.hi b.lo and p4l = U.mul_down a.hi b.hi in
    let p1u = U.mul_up a.lo b.lo and p2u = U.mul_up a.lo b.hi
    and p3u = U.mul_up a.hi b.lo and p4u = U.mul_up a.hi b.hi in
    { lo = min (min p1l p2l) (min p3l p4l); hi = max (max p1u p2u) (max p3u p4u) }

  let eval oracle (a : LF.t) =
    LF.VarMap.fold
      (fun v k (lo, hi) ->
        let vlo, vhi = oracle v in
        let p = coeff_mul k { lo = vlo; hi = vhi } in
        (D.Float_utils.add_down lo p.lo, D.Float_utils.add_up hi p.hi))
      a.terms (a.const.lo, a.const.hi)

  let var_index (o : O.t) (v : F.Tast.var) =
    let index = Hashtbl.create 8 in
    Array.iteri (fun k w -> Hashtbl.replace index w.F.Tast.v_id k) o.O.pack;
    Hashtbl.find_opt index v.F.Tast.v_id

  let get_bounds (o : O.t) v =
    match var_index o v with
    | None -> None
    | Some k ->
        let n2 = o.O.n2 and i = 2 * k in
        let hi = D.Float_utils.round_up (o.O.m.(((i lxor 1) * n2) + i) /. 2.0) in
        let lo =
          D.Float_utils.round_down (-.(o.O.m.((i * n2) + (i lxor 1)) /. 2.0))
        in
        Some (lo, hi)

  let eval_form o oracle form =
    let var_hull v =
      match get_bounds o v with
      | Some (lo, hi) ->
          let olo, ohi = oracle v in
          (Float.max lo olo, Float.min hi ohi)
      | None -> oracle v
    in
    eval var_hull form

  let mem_var o v = var_index o v <> None

  let assign (o : O.t) oracle (x : F.Tast.var) (form : LF.t) =
    if not (O.is_bot o) then begin
      match var_index o x with
      | None -> ()
      | Some kx
        when match LF.as_single_var form with
             | Some (y, k, _) ->
                 F.Tast.Var.equal y x && k.LF.lo = 1.0 && k.LF.hi = 1.0
             | None -> false ->
          let c, d =
            match LF.as_single_var form with
            | Some (_, _, cst) -> (cst.LF.lo, cst.LF.hi)
            | None -> (0.0, 0.0)
          in
          O.shift_var o kx c d;
          O.close_incremental o
      | Some _ ->
          let vlo, vhi = eval_form o oracle form in
          let unit_terms =
            LF.vars form
            |> List.filter_map (fun y ->
                   if F.Tast.Var.equal y x || not (mem_var o y) then None
                   else
                     let k = LF.VarMap.find y form.LF.terms in
                     if k.LF.lo = 1.0 && k.LF.hi = 1.0 then Some (y, `Plus)
                     else if k.LF.lo = -1.0 && k.LF.hi = -1.0 then
                       Some (y, `Minus)
                     else None)
          in
          let rests =
            List.map
              (fun (y, sign) ->
                let ly = LF.of_var y in
                let rest =
                  match sign with
                  | `Plus -> LF.sub form ly
                  | `Minus -> LF.add form ly
                in
                let c, d = eval_form o oracle rest in
                (y, sign, c, d))
              unit_terms
          in
          O.forget o x;
          O.set_bounds o x (vlo, vhi);
          List.iter
            (fun (y, sign, c, d) ->
              match sign with
              | `Plus ->
                  if d < Float.infinity then O.add_diff_le o x y d;
                  if c > Float.neg_infinity then O.add_diff_le o y x (-.c)
              | `Minus ->
                  if d < Float.infinity then O.add_sum_le o x y d;
                  if c > Float.neg_infinity then O.add_neg_sum_le o x y (-.c))
            rests;
          O.close_incremental o
    end

  let guard_le_zero (o : O.t) oracle (form : LF.t) =
    if not (O.is_bot o) then begin
      let in_pack = List.filter (mem_var o) (LF.vars form) in
      let unit_coeff v =
        match LF.VarMap.find_opt v form.LF.terms with
        | Some c when c.LF.lo = 1.0 && c.LF.hi = 1.0 -> Some `Plus
        | Some c when c.LF.lo = -1.0 && c.LF.hi = -1.0 -> Some `Minus
        | _ -> None
      in
      let remove sign f lx =
        match sign with `Plus -> LF.sub f lx | `Minus -> LF.add f lx
      in
      (match in_pack with
      | [ x ] -> (
          match unit_coeff x with
          | Some sign -> (
              let c, _ = eval_form o oracle (remove sign form (LF.of_var x)) in
              match sign with
              | `Plus ->
                  let _, cur_hi =
                    Option.value (get_bounds o x)
                      ~default:(Float.neg_infinity, Float.infinity)
                  in
                  let new_hi = D.Float_utils.round_up (-.c) in
                  if new_hi < cur_hi then
                    O.set_bounds o x (Float.neg_infinity, new_hi)
              | `Minus ->
                  let new_lo = D.Float_utils.round_down c in
                  if new_lo > Float.neg_infinity then
                    O.set_bounds o x (new_lo, Float.infinity))
          | None -> ())
      | [ x; y ] -> (
          match (unit_coeff x, unit_coeff y) with
          | Some sx, Some sy ->
              let f = remove sx form (LF.of_var x) in
              let f = remove sy f (LF.of_var y) in
              let c, _ = eval_form o oracle f in
              let bound = D.Float_utils.round_up (-.c) in
              if bound < Float.infinity then begin
                match (sx, sy) with
                | `Plus, `Plus -> O.add_sum_le o x y bound
                | `Plus, `Minus -> O.add_diff_le o x y bound
                | `Minus, `Plus -> O.add_diff_le o y x bound
                | `Minus, `Minus -> O.add_neg_sum_le o x y bound
              end
          | _ -> ())
      | _ -> ());
      O.close_incremental o
    end
end

(* Bounds where the transfer's float operations differ: signed zeros,
   infinities, NaN, units, non-dyadic ratios. *)
let gen_bound =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map
            (fun (a, b) -> float_of_int a /. float_of_int b)
            (pair (int_range (-50) 50) (int_range 1 7)) );
        (1, oneofl [ 0.0; -0.0 ]);
        ( 2,
          oneofl
            [ 0.0; -0.0; 1.0; -1.0; Float.infinity; Float.neg_infinity;
              Float.nan; max_float; -.max_float; 1e-310 ] );
        (1, float);
      ])

let gen_coeff : LF.coeff QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (5, oneofl [ LF.coeff_const 1.0; LF.coeff_const (-1.0) ]);
        (1, oneofl [ LF.coeff_zero; { LF.lo = -0.0; hi = -0.0 } ]);
        ( 2,
          oneofl
            [ { LF.lo = -0.0; hi = -0.0 }; { LF.lo = -0.0; hi = 0.0 };
              { LF.lo = -0.0; hi = 1.0 }; { LF.lo = 1.0; hi = 1.0000001 };
              { LF.lo = Float.nan; hi = 1.0 };
              { LF.lo = Float.neg_infinity; hi = Float.infinity } ] );
        (2, map LF.coeff_const gen_bound);
        (2, map (fun (a, b) -> { LF.lo = a; hi = b }) (pair gen_bound gen_bound));
      ])

(* A pack of 1..6 variables, two variables outside it, an octagon over
   the pack built from random constraints (closed, or left dirty), the
   assigned variable (sometimes outside the pack), a form (with the
   assigned variable in it, or the self-update [x + c]) and the oracle
   hulls. *)
type transfer_case = {
  vars : F.Tast.var array;  (** the pack's, then two outside *)
  n : int;
  cons : (int * int * int * float) list;  (** kind, i, j, bound *)
  closed : bool;
  x : int;
  terms : (int * LF.coeff) list;
  const : LF.coeff;
  hulls : (float * float) array;
}

let gen_transfer_case =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    let vars = Array.init (n + 2) (fun i -> mkvar (Printf.sprintf "t%d" i)) in
    list_size (int_bound 8)
      (quad (int_bound 3) (int_bound (n - 1)) (int_bound (n - 1)) gen_bound)
    >>= fun cons ->
    bool >>= fun closed ->
    frequency [ (6, int_bound (n - 1)); (1, return n) ] >>= fun x ->
    list_size (int_bound 5) (pair (int_bound (n + 1)) gen_coeff) >>= fun terms ->
    frequency [ (4, return terms); (1, return [ (x, LF.coeff_const 1.0) ]) ]
    >>= fun terms ->
    map (fun (a, b) -> { LF.lo = a; hi = b }) (pair gen_bound gen_bound)
    >>= fun const ->
    array_repeat (n + 2) (pair gen_bound gen_bound) >>= fun hulls ->
    return { vars; n; cons; closed; x; terms; const; hulls })

let print_transfer_case c =
  Printf.sprintf "n=%d closed=%b x=%d cons=[%s] terms=[%s] const=[%h,%h] hulls=[%s]"
    c.n c.closed c.x
    (String.concat "; "
       (List.map (fun (k, i, j, b) -> Printf.sprintf "%d:%d,%d<=%h" k i j b) c.cons))
    (String.concat "; "
       (List.map (fun (i, (k : LF.coeff)) -> Printf.sprintf "[%h,%h]*t%d" k.lo k.hi i)
          c.terms))
    c.const.lo c.const.hi
    (String.concat "; "
       (Array.to_list (Array.map (fun (a, b) -> Printf.sprintf "[%h,%h]" a b) c.hulls)))

let build_case c =
  let o = O.top (Array.sub c.vars 0 c.n) in
  List.iter
    (fun (kind, i, j, b) ->
      let vi = c.vars.(i) and vj = c.vars.(j) in
      match kind with
      | 0 -> O.set_bounds o vi (Float.neg_infinity, b)
      | 1 -> O.set_bounds o vi (b, Float.infinity)
      | 2 -> O.add_diff_le o vi vj b
      | _ -> O.add_sum_le o vi vj b)
    c.cons;
  if c.closed then O.close o;
  let form =
    {
      LF.terms =
        List.fold_left
          (fun m (i, k) -> LF.VarMap.add c.vars.(i) k m)
          LF.VarMap.empty c.terms;
      const = c.const;
    }
  in
  let oracle (v : F.Tast.var) =
    let rec find i =
      if i = Array.length c.vars then (Float.neg_infinity, Float.infinity)
      else if F.Tast.Var.equal c.vars.(i) v then c.hulls.(i)
      else find (i + 1)
    in
    find 0
  in
  (o, form, oracle)

let same_octagon (a : O.t) (b : O.t) =
  O.is_bot a = O.is_bot b && bits_equal a.O.m b.O.m && a.O.closure = b.O.closure

let prop_assign_bitwise =
  QCheck.Test.make ~count:5000 ~name:"assign matches reference bitwise"
    (QCheck.make ~print:print_transfer_case gen_transfer_case)
    (fun c ->
      let o, form, oracle = build_case c in
      let a = O.copy o and r = O.copy o in
      O.assign a oracle c.vars.(c.x) form;
      Ref_transfer.assign r oracle c.vars.(c.x) form;
      same_octagon a r)

let prop_guard_bitwise =
  QCheck.Test.make ~count:5000 ~name:"guard matches reference bitwise"
    (QCheck.make ~print:print_transfer_case gen_transfer_case)
    (fun c ->
      let o, form, oracle = build_case c in
      let a = O.copy o and r = O.copy o in
      O.guard_le_zero a oracle form;
      Ref_transfer.guard_le_zero r oracle form;
      same_octagon a r)

(* Deterministic instance pinning the genuinely incremental path (one
   dirty variable out of four, below the full-closure fallback
   threshold). *)
let test_incremental_path () =
  let pack = Array.init 4 (fun i -> mkvar (Printf.sprintf "w%d" i)) in
  let o = O.top pack in
  O.set_bounds o pack.(0) (0.0, 10.0);
  O.add_diff_le o pack.(0) pack.(1) 3.0;
  O.add_sum_le o pack.(2) pack.(3) 7.0;
  O.close o;
  let a = O.copy o and b = O.copy o in
  O.add_diff_le a pack.(2) pack.(0) 1.0;
  O.add_diff_le b pack.(2) pack.(0) 1.0;
  let incr0 = Metrics.value close_incr in
  O.close_incremental a;
  Alcotest.(check int)
    "incremental algorithm used" (incr0 + 1)
    (Metrics.value close_incr);
  O.close b;
  Alcotest.(check bool) "same bottom" (O.is_bot a) (O.is_bot b);
  Alcotest.(check bool) "same matrix" true (a.O.m = b.O.m)

(* Counter-based regression: the join of two closed octagons is closed
   by construction and must perform zero closure work — neither at join
   time nor when a closure is next requested on the result. *)
let test_join_zero_closure_work () =
  let x = mkvar "jx" and y = mkvar "jy" and z = mkvar "jz" in
  let pack = [| x; y; z |] in
  let a = O.top pack and b = O.top pack in
  O.set_bounds a x (0.0, 10.0);
  O.add_diff_le a x y 3.0;
  O.close a;
  O.set_bounds b x (2.0, 8.0);
  O.add_sum_le b y z 5.0;
  O.close b;
  Alcotest.(check bool) "a closed" true (a.O.closure = O.Closed);
  Alcotest.(check bool) "b closed" true (b.O.closure = O.Closed);
  let full0 = Metrics.value close_full in
  let incr0 = Metrics.value close_incr in
  let j = O.join a b in
  Alcotest.(check int) "join: no full closure" full0
    (Metrics.value close_full);
  Alcotest.(check int) "join: no incremental closure" incr0
    (Metrics.value close_incr);
  Alcotest.(check bool) "join of closed is closed" true
    (j.O.closure = O.Closed);
  O.close_incremental j;
  Alcotest.(check int) "re-closing the join is free" full0
    (Metrics.value close_full);
  Alcotest.(check int) "re-closing the join is free (incr)" incr0
    (Metrics.value close_incr)

(* Widening results must stay unclosed (the classical termination
   condition), and the next closure request falls back to the full
   pass. *)
let test_widen_unclosed () =
  let x = mkvar "ux" and y = mkvar "uy" in
  let a = O.top [| x; y |] and b = O.top [| x; y |] in
  O.set_bounds a x (0.0, 10.0);
  O.close a;
  O.set_bounds b x (0.0, 12.0);
  O.close b;
  let w = O.widen ~thresholds:D.Thresholds.default a b in
  Alcotest.(check bool) "widen result unclosed" true
    (w.O.closure = O.Unclosed);
  let full0 = Metrics.value close_full in
  O.close_incremental w;
  Alcotest.(check int) "unclosed falls back to full closure" (full0 + 1)
    (Metrics.value close_full);
  Alcotest.(check bool) "then closed" true (w.O.closure = O.Closed)

let suite =
  [
    Alcotest.test_case "top/bottom" `Quick test_top_bot;
    Alcotest.test_case "set/get bounds" `Quick test_set_get_bounds;
    Alcotest.test_case "difference + closure" `Quick test_diff_constraint_closure;
    Alcotest.test_case "sum constraint" `Quick test_sum_constraint;
    Alcotest.test_case "emptiness" `Quick test_emptiness_detection;
    Alcotest.test_case "forget" `Quick test_forget;
    Alcotest.test_case "join hull" `Quick test_join_hull;
    Alcotest.test_case "meet" `Quick test_meet;
    Alcotest.test_case "relational assignment (paper ex.)" `Quick test_assign_relational;
    Alcotest.test_case "self-update assignment" `Quick test_assign_self_update;
    Alcotest.test_case "widening thresholds" `Quick test_widen_thresholds;
    Alcotest.test_case "widening stable" `Quick test_widen_stable_side;
    Alcotest.test_case "two-variable guard" `Quick test_guard_two_vars;
    Alcotest.test_case "constraint census" `Quick test_count_constraints;
    Alcotest.test_case "incremental closure path" `Quick test_incremental_path;
    Alcotest.test_case "join does zero closure work" `Quick
      test_join_zero_closure_work;
    Alcotest.test_case "widening stays unclosed" `Quick test_widen_unclosed;
  ]
  @ [
      QCheck_alcotest.to_alcotest prop_closure_sound;
      QCheck_alcotest.to_alcotest prop_incremental_equiv;
      QCheck_alcotest.to_alcotest prop_kernels_bitwise;
      QCheck_alcotest.to_alcotest prop_assign_bitwise;
      QCheck_alcotest.to_alcotest prop_guard_bitwise;
    ]
