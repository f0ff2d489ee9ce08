(* Unit and property tests for the interval domain (Sect. 6.2.1). *)

module D = Astree_domains
module I = D.Itv

let check_itv = Alcotest.testable I.pp I.equal

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_join_int () =
  Alcotest.check check_itv "join" (I.int_range 0 10)
    (I.join (I.int_range 0 5) (I.int_range 3 10))

let test_meet_int () =
  Alcotest.check check_itv "meet" (I.int_range 3 5)
    (I.meet (I.int_range 0 5) (I.int_range 3 10));
  Alcotest.check check_itv "empty meet" I.Bot
    (I.meet (I.int_range 0 2) (I.int_range 5 10))

let test_add_int () =
  Alcotest.check check_itv "add" (I.int_range 3 30)
    (I.add (I.int_range 1 10) (I.int_range 2 20))

let test_add_saturates () =
  match I.add (I.int_range 0 max_int) (I.int_range 0 max_int) with
  | I.Int (0, hi) -> Alcotest.(check bool) "saturated" true (hi = max_int)
  | i -> Alcotest.failf "unexpected %a" I.pp i

let test_mul_int_signs () =
  Alcotest.check check_itv "mul" (I.int_range (-20) 20)
    (I.mul (I.int_range (-2) 2) (I.int_range (-10) 10));
  Alcotest.check check_itv "mul neg" (I.int_range (-6) 12)
    (I.mul (I.int_range (-2) 1) (I.int_range (-6) 3))

let test_div_int () =
  Alcotest.check check_itv "div pos" (I.int_range 2 10)
    (I.div (I.int_range 20 50) (I.int_range 5 10));
  (* divisor spanning zero: both signed quotients *)
  Alcotest.check check_itv "div span" (I.int_range (-50) 50)
    (I.div (I.int_range 20 50) (I.int_range (-1) 1))

let test_div_float_pos () =
  match I.div (I.float_range 1.0 4.0) (I.float_range 2.0 2.0) with
  | I.Float (lo, hi) ->
      Alcotest.(check bool) "lo" true (lo <= 0.5 && lo >= 0.49);
      Alcotest.(check bool) "hi" true (hi >= 2.0 && hi <= 2.01)
  | i -> Alcotest.failf "unexpected %a" I.pp i

let test_div_float_span () =
  (* dividing by a range touching zero is unbounded *)
  match I.div (I.float_range 1.0 2.0) (I.float_range 0.0 1.0) with
  | I.Float (lo, hi) ->
      Alcotest.(check bool) "lo finite" true (lo >= 0.99);
      Alcotest.(check bool) "hi inf" true (hi = Float.infinity)
  | i -> Alcotest.failf "unexpected %a" I.pp i

let test_rem () =
  Alcotest.check check_itv "rem" (I.int_range 0 4)
    (I.rem (I.int_range 0 100) (I.int_range 5 5));
  Alcotest.check check_itv "rem neg dividend" (I.int_range (-4) 4)
    (I.rem (I.int_range (-100) 100) (I.int_range 5 5));
  (* dividend smaller than divisor: tightened by the dividend *)
  Alcotest.check check_itv "rem small" (I.int_range 0 3)
    (I.rem (I.int_range 0 3) (I.int_range 10 10))

let test_neg () =
  Alcotest.check check_itv "neg" (I.int_range (-10) (-1))
    (I.neg (I.int_range 1 10))

let test_abs () =
  Alcotest.check check_itv "abs span" (I.int_range 0 10)
    (I.abs (I.int_range (-10) 5));
  Alcotest.check check_itv "abs neg" (I.int_range 1 10)
    (I.abs (I.int_range (-10) (-1)))

let test_float_add_rounds_out () =
  match I.add (I.float_range 0.1 0.2) (I.float_range 0.3 0.4) with
  | I.Float (lo, hi) ->
      Alcotest.(check bool) "lo sound" true (lo <= 0.1 +. 0.3);
      Alcotest.(check bool) "hi sound" true (hi >= 0.2 +. 0.4)
  | i -> Alcotest.failf "unexpected %a" I.pp i

let test_exact_float_ops_stay_exact () =
  (* 1.0 + 2.0 is exact: the compensated rounding must not widen it *)
  Alcotest.check check_itv "exact add" (I.float_range 3.0 3.0)
    (I.add (I.float_const 1.0) (I.float_const 2.0));
  Alcotest.check check_itv "exact mul" (I.float_const 6.0)
    (I.mul (I.float_const 2.0) (I.float_const 3.0))

let test_widen_thresholds () =
  let t = D.Thresholds.of_list [ 10.0; 100.0 ] in
  (match I.widen ~thresholds:t (I.int_range 0 5) (I.int_range 0 7) with
  | I.Int (0, 10) -> ()
  | i -> Alcotest.failf "expected [0,10], got %a" I.pp i);
  (match I.widen ~thresholds:t (I.int_range 0 5) (I.int_range (-3) 200) with
  | I.Int (lo, hi) ->
      Alcotest.(check bool) "lo" true (lo = -10);
      Alcotest.(check bool) "hi" true (hi = max_int)
  | i -> Alcotest.failf "unexpected %a" I.pp i)

let test_widen_stable () =
  let t = D.Thresholds.default in
  let a = I.int_range 0 10 in
  Alcotest.check check_itv "stable" a (I.widen ~thresholds:t a (I.int_range 2 8))

let test_narrow () =
  (* narrowing refines infinite bounds only *)
  let a = I.Int (0, Astree_domains.Float_utils.Sat.pos_inf) in
  Alcotest.check check_itv "narrow" (I.int_range 0 50) (I.narrow a (I.int_range 0 50));
  Alcotest.check check_itv "narrow keeps finite" (I.int_range 0 10)
    (I.narrow (I.int_range 0 10) (I.int_range 2 5))

let test_refinements () =
  Alcotest.check check_itv "lt" (I.int_range 0 4)
    (I.refine_lt (I.int_range 0 10) (I.int_range 5 5));
  Alcotest.check check_itv "ge" (I.int_range 5 10)
    (I.refine_ge (I.int_range 0 10) (I.int_range 5 7));
  Alcotest.check check_itv "ne boundary" (I.int_range 1 10)
    (I.refine_ne (I.int_range 0 10) (I.int_const 0));
  Alcotest.check check_itv "ne interior is identity" (I.int_range 0 10)
    (I.refine_ne (I.int_range 0 10) (I.int_const 5))

let test_exclude_zero () =
  Alcotest.check check_itv "int" (I.int_range 1 10)
    (I.exclude_zero (I.int_range 0 10));
  Alcotest.check check_itv "int neg" (I.int_range (-10) (-1))
    (I.exclude_zero (I.int_range (-10) 0));
  Alcotest.check check_itv "singleton zero" I.Bot
    (I.exclude_zero (I.int_const 0))

let test_conversions () =
  (match I.int_to_float (I.int_range (-3) 7) with
  | I.Float (lo, hi) ->
      Alcotest.(check bool) "bounds" true (lo <= -3.0 && hi >= 7.0)
  | i -> Alcotest.failf "unexpected %a" I.pp i);
  Alcotest.check check_itv "trunc" (I.int_range (-1) 2)
    (I.float_to_int (I.float_range (-1.9) 2.9))

let test_to_single () =
  match I.to_single (I.float_range 0.1 0.2) with
  | I.Float (lo, hi) ->
      Alcotest.(check bool) "sound" true (lo <= 0.1 && hi >= 0.2)
  | i -> Alcotest.failf "unexpected %a" I.pp i

let test_shifts () =
  Alcotest.check check_itv "shl" (I.int_range 4 40)
    (I.shl (I.int_range 1 10) (I.int_const 2));
  Alcotest.check check_itv "shr" (I.int_range 1 25)
    (I.shr (I.int_range 4 100) (I.int_const 2))

let test_bitops_singleton () =
  Alcotest.check check_itv "band" (I.int_const (12 land 10))
    (I.band (I.int_const 12) (I.int_const 10));
  Alcotest.check check_itv "bxor" (I.int_const (12 lxor 10))
    (I.bxor (I.int_const 12) (I.int_const 10))

let test_bitops_range () =
  (* non-negative ranges stay within the enclosing power of two *)
  match I.bor (I.int_range 0 12) (I.int_range 0 5) with
  | I.Int (0, hi) -> Alcotest.(check bool) "bound" true (hi >= 13 && hi <= 15)
  | i -> Alcotest.failf "unexpected %a" I.pp i

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let small_int = QCheck.Gen.int_range (-1000) 1000

let gen_int_itv : I.t QCheck.Gen.t =
  QCheck.Gen.(
    small_int >>= fun a ->
    small_int >>= fun b -> return (I.int_range (min a b) (max a b)))

let gen_float_itv : I.t QCheck.Gen.t =
  QCheck.Gen.(
    float_range (-1000.) 1000. >>= fun a ->
    float_range (-1000.) 1000. >>= fun b ->
    return (I.float_range (Float.min a b) (Float.max a b)))

let arb_int_itv = QCheck.make ~print:(Fmt.str "%a" I.pp) gen_int_itv
let arb_float_itv = QCheck.make ~print:(Fmt.str "%a" I.pp) gen_float_itv

let contains (i : I.t) (x : float) : bool =
  match i with
  | I.Bot -> false
  | I.Int (lo, hi) ->
      Float.is_integer x && float_of_int lo <= x && x <= float_of_int hi
  | I.Float (lo, hi) -> lo <= x && x <= hi

let mem_int (i : I.t) (x : int) : bool =
  match i with I.Int (lo, hi) -> lo <= x && x <= hi | _ -> false

let prop_join_sound =
  QCheck.Test.make ~name:"join is an upper bound"
    (QCheck.pair arb_int_itv arb_int_itv) (fun (a, b) ->
      I.subset a (I.join a b) && I.subset b (I.join a b))

let prop_meet_sound =
  QCheck.Test.make ~name:"meet is a lower bound"
    (QCheck.pair arb_int_itv arb_int_itv) (fun (a, b) ->
      I.subset (I.meet a b) a && I.subset (I.meet a b) b)

let prop_add_sound =
  QCheck.Test.make ~name:"int add contains pointwise sums"
    QCheck.(
      pair (pair arb_int_itv arb_int_itv)
        (pair (int_range (-1000) 1000) (int_range (-1000) 1000)))
    (fun ((a, b), (x, y)) ->
      QCheck.assume (mem_int a x && mem_int b y);
      mem_int (I.add a b) (x + y))

let prop_mul_sound =
  QCheck.Test.make ~name:"int mul contains pointwise products"
    QCheck.(
      pair (pair arb_int_itv arb_int_itv)
        (pair (int_range (-1000) 1000) (int_range (-1000) 1000)))
    (fun ((a, b), (x, y)) ->
      QCheck.assume (mem_int a x && mem_int b y);
      mem_int (I.mul a b) (x * y))

let prop_float_add_sound =
  QCheck.Test.make ~name:"float add is outward"
    QCheck.(
      pair (pair arb_float_itv arb_float_itv)
        (pair (float_range (-1000.) 1000.) (float_range (-1000.) 1000.)))
    (fun ((a, b), (x, y)) ->
      QCheck.assume (contains a x && contains b y);
      contains (I.add a b) (x +. y))

let prop_float_mul_sound =
  QCheck.Test.make ~name:"float mul is outward"
    QCheck.(
      pair (pair arb_float_itv arb_float_itv)
        (pair (float_range (-100.) 100.) (float_range (-100.) 100.)))
    (fun ((a, b), (x, y)) ->
      QCheck.assume (contains a x && contains b y);
      contains (I.mul a b) (x *. y))

let prop_widen_upper =
  QCheck.Test.make ~name:"widening is an upper bound of both sides"
    (QCheck.pair arb_int_itv arb_int_itv) (fun (a, b) ->
      let w = I.widen ~thresholds:D.Thresholds.default a b in
      I.subset a w && I.subset b w)

let prop_widen_terminates =
  QCheck.Test.make ~name:"iterated widening reaches a fixpoint quickly"
    (QCheck.pair arb_int_itv arb_int_itv) (fun (a, step) ->
      let t = D.Thresholds.default in
      let rec go n cur =
        if n > 2 * D.Thresholds.size t then false
        else
          let next = I.widen ~thresholds:t cur (I.add cur step) in
          if I.equal next cur then true else go (n + 1) next
      in
      go 0 a)

let prop_narrow_between =
  QCheck.Test.make ~name:"narrowing refines only infinite bounds"
    (QCheck.pair arb_int_itv arb_int_itv) (fun (a, b) ->
      (* if a is finite, narrowing is the identity *)
      I.equal (I.narrow a b) a)

let unit_tests =
  [
    Alcotest.test_case "join int" `Quick test_join_int;
    Alcotest.test_case "meet int" `Quick test_meet_int;
    Alcotest.test_case "add int" `Quick test_add_int;
    Alcotest.test_case "add saturation" `Quick test_add_saturates;
    Alcotest.test_case "mul signs" `Quick test_mul_int_signs;
    Alcotest.test_case "div int" `Quick test_div_int;
    Alcotest.test_case "div float positive" `Quick test_div_float_pos;
    Alcotest.test_case "div float spanning zero" `Quick test_div_float_span;
    Alcotest.test_case "rem" `Quick test_rem;
    Alcotest.test_case "neg" `Quick test_neg;
    Alcotest.test_case "abs" `Quick test_abs;
    Alcotest.test_case "float add rounds outward" `Quick test_float_add_rounds_out;
    Alcotest.test_case "exact float ops stay exact" `Quick test_exact_float_ops_stay_exact;
    Alcotest.test_case "widen with thresholds" `Quick test_widen_thresholds;
    Alcotest.test_case "widen stable" `Quick test_widen_stable;
    Alcotest.test_case "narrow" `Quick test_narrow;
    Alcotest.test_case "guard refinements" `Quick test_refinements;
    Alcotest.test_case "exclude zero" `Quick test_exclude_zero;
    Alcotest.test_case "conversions" `Quick test_conversions;
    Alcotest.test_case "to_single" `Quick test_to_single;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "bitops singleton" `Quick test_bitops_singleton;
    Alcotest.test_case "bitops range" `Quick test_bitops_range;
  ]

(* The lattice operations and the product as they were with Stdlib's
   polymorphic [min]/[max] and four products per direction: the typed
   comparisons and the point shortcut must give the same bits on any
   bounds, NaN, signed zeros and infinities included (the constructors
   are applied raw, so the intervals need not be ordered or NaN-free). *)
module Ref_itv = struct
  module Sat = D.Float_utils.Sat
  module U = D.Float_utils

  let join a b =
    match (a, b) with
    | I.Bot, x | x, I.Bot -> x
    | I.Int (x, y), I.Int (x', y') -> I.Int (min x x', max y y')
    | I.Float (x, y), I.Float (x', y') -> I.Float (min x x', max y y')
    | _ -> invalid_arg "kind mismatch"

  let meet a b =
    match (a, b) with
    | I.Bot, _ | _, I.Bot -> I.Bot
    | I.Int (x, y), I.Int (x', y') -> I.int_range (max x x') (min y y')
    | I.Float (x, y), I.Float (x', y') -> I.float_range (max x x') (min y y')
    | _ -> invalid_arg "kind mismatch"

  let mul x y =
    match (x, y) with
    | I.Bot, _ | _, I.Bot -> I.Bot
    | I.Int (a, b), I.Int (c, d) ->
        let p1 = Sat.mul a c and p2 = Sat.mul a d in
        let p3 = Sat.mul b c and p4 = Sat.mul b d in
        I.Int (min (min p1 p2) (min p3 p4), max (max p1 p2) (max p3 p4))
    | I.Float (a, b), I.Float (c, d) ->
        let lo =
          min
            (min (U.mul_down a c) (U.mul_down a d))
            (min (U.mul_down b c) (U.mul_down b d))
        in
        let hi =
          max (max (U.mul_up a c) (U.mul_up a d)) (max (U.mul_up b c) (U.mul_up b d))
        in
        I.float_range lo hi
    | _ -> invalid_arg "kind mismatch"
end

let same_itv a b =
  let bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  match (a, b) with
  | I.Bot, I.Bot -> true
  | I.Int (a, b), I.Int (c, d) -> a = c && b = d
  | I.Float (a, b), I.Float (c, d) -> bits a c && bits b d
  | _ -> false

let gen_edge_bound =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [ Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity; 1.0;
              -1.0; max_float; -.max_float; 1e-310 ] );
        ( 2,
          map
            (fun (a, b) -> float_of_int a /. float_of_int b)
            (pair (int_range (-20) 20) (int_range 1 7)) );
        (1, float);
      ])

let gen_edge_int =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl [ 0; 1; -1; D.Float_utils.Sat.neg_inf; D.Float_utils.Sat.pos_inf ]);
        (3, int_range (-50) 50);
      ])

(* float or int pairs of one kind, a point on either side now and then *)
let gen_edge_pair =
  QCheck.Gen.(
    let itv g mk =
      frequency
        [ (3, map2 mk g g); (1, map (fun a -> mk a a) g) ]
    in
    frequency
      [
        ( 3,
          pair
            (itv gen_edge_bound (fun a b -> I.Float (a, b)))
            (itv gen_edge_bound (fun a b -> I.Float (a, b))) );
        ( 1,
          pair
            (itv gen_edge_int (fun a b -> I.Int (a, b)))
            (itv gen_edge_int (fun a b -> I.Int (a, b))) );
      ])

let print_edge (a, b) =
  let p = function
    | I.Bot -> "bot"
    | I.Int (x, y) -> Printf.sprintf "Int(%d,%d)" x y
    | I.Float (x, y) -> Printf.sprintf "Float(%h,%h)" x y
  in
  p a ^ " " ^ p b

let prop_typed_minmax =
  QCheck.Test.make ~count:2000
    ~name:"join/meet/mul = reference bitwise"
    (QCheck.make ~print:print_edge gen_edge_pair)
    (fun (a, b) ->
      same_itv (I.join a b) (Ref_itv.join a b)
      && same_itv (I.meet a b) (Ref_itv.meet a b)
      && same_itv (I.mul a b) (Ref_itv.mul a b))

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_join_sound;
      prop_meet_sound;
      prop_add_sound;
      prop_mul_sound;
      prop_float_add_sound;
      prop_float_mul_sound;
      prop_widen_upper;
      prop_widen_terminates;
      prop_narrow_between;
      prop_typed_minmax;
    ]

let suite = unit_tests @ prop_tests
