(* Transfer-function level tests: guards, assignments, weak/strong
   updates, clock behaviour and alarms, exercised through tiny programs
   with [__astree_assert] probes. *)

module C = Astree_core
module D = Astree_domains

let alarms ?(cfg = C.Config.default) src =
  C.Analysis.n_alarms (C.Analysis.analyze_string ~cfg src)

let proves src = Alcotest.(check int) "proved" 0 (alarms src)
let refutes src = Alcotest.(check bool) "alarmed" true (alarms src > 0)

(* guards ----------------------------------------------------------- *)

let test_guard_comparisons () =
  proves
    {|
volatile int n;
int main(void) {
  __astree_input_range(n, 0.0, 100.0);
  while (1) {
    int x;
    x = n;
    if (x > 10) { __astree_assert(x >= 11); __astree_assert(x <= 100); }
    else { __astree_assert(x <= 10); }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_guard_conjunction () =
  proves
    {|
volatile int n;
int main(void) {
  __astree_input_range(n, 0.0, 100.0);
  while (1) {
    int x;
    x = n;
    if (x > 10 && x < 20) { __astree_assert(x >= 11 && x <= 19); }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_guard_disjunction () =
  proves
    {|
volatile int n;
int main(void) {
  __astree_input_range(n, 0.0, 100.0);
  while (1) {
    int x;
    x = n;
    /* the then-branch is a union of two intervals, not representable:
       only the else-branch refinement is checkable with intervals */
    if (x < 10 || x > 90) { x = 0; }
    else { __astree_assert(x >= 10 && x <= 90); }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_guard_negation () =
  proves
    {|
volatile int n;
int main(void) {
  __astree_input_range(n, 0.0, 100.0);
  while (1) {
    int x;
    x = n;
    if (!(x > 50)) { __astree_assert(x <= 50); }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_guard_equality () =
  proves
    {|
volatile int n;
int main(void) {
  __astree_input_range(n, 0.0, 100.0);
  while (1) {
    int x;
    x = n;
    if (x == 42) { __astree_assert(x >= 42 && x <= 42); }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_unsat_guard_is_dead () =
  (* a contradictory condition makes the branch unreachable: the division
     in it raises no alarm *)
  proves
    {|
volatile int n;
float y;
int main(void) {
  __astree_input_range(n, 0.0, 10.0);
  while (1) {
    int x;
    x = n;
    if (x > 5 && x < 3) { y = 1.0f / 0.0f; }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

(* arithmetic alarms ------------------------------------------------- *)

let test_signed_overflow_boundary () =
  proves
    {|
volatile int n;
int y;
int main(void) {
  __astree_input_range(n, 0.0, 100.0);
  while (1) { y = 2147483547 + n; __astree_wait_for_clock(); }
  return 0;
}
|};
  refutes
    {|
volatile int n;
int y;
int main(void) {
  __astree_input_range(n, 0.0, 101.0);
  while (1) { y = 2147483547 + n; __astree_wait_for_clock(); }
  return 0;
}
|}

let test_unsigned_range () =
  refutes
    {|
volatile int n;
unsigned int y;
int main(void) {
  __astree_input_range(n, 0.0, 10.0);
  while (1) { y = n - 11; __astree_wait_for_clock(); }
  return 0;
}
|}

let test_short_conversion () =
  proves
    {|
volatile int n;
short s;
int main(void) {
  __astree_input_range(n, 0.0, 32767.0);
  while (1) { s = (short)n; __astree_wait_for_clock(); }
  return 0;
}
|};
  refutes
    {|
volatile int n;
short s;
int main(void) {
  __astree_input_range(n, 0.0, 32768.0);
  while (1) { s = (short)n; __astree_wait_for_clock(); }
  return 0;
}
|}

let test_mod_and_shift () =
  proves
    {|
volatile int n;
int y;
int main(void) {
  __astree_input_range(n, 1.0, 100.0);
  while (1) {
    y = (1000 % n) + (n >> 2) + (1 << 10);
    __astree_assert(y >= 1024);
    __astree_wait_for_clock();
  }
  return 0;
}
|};
  refutes
    {|
volatile int n;
int y;
int main(void) {
  __astree_input_range(n, 0.0, 40.0);
  while (1) { y = 1 << n; __astree_wait_for_clock(); }
  return 0;
}
|}

let test_float_division_refinement () =
  (* the guard excludes the zero divisor *)
  proves
    {|
volatile float d;
float y;
int main(void) {
  __astree_input_range(d, -10.0, 10.0);
  while (1) {
    float v;
    v = d;
    if (v > 0.5f) { y = 1.0f / v; __astree_assert(y <= 2.0f); }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_sqrt_domain () =
  proves
    {|
volatile float d;
float y;
int main(void) {
  __astree_input_range(d, 4.0, 16.0);
  while (1) {
    y = sqrtf(d);
    __astree_assert(y >= 1.9f && y <= 4.1f);
    __astree_wait_for_clock();
  }
  return 0;
}
|};
  refutes
    {|
volatile float d;
float y;
int main(void) {
  __astree_input_range(d, -1.0, 16.0);
  while (1) { y = sqrtf(d); __astree_wait_for_clock(); }
  return 0;
}
|}

let test_fabs () =
  proves
    {|
volatile float d;
float y;
int main(void) {
  __astree_input_range(d, -10.0, 3.0);
  while (1) {
    y = fabsf(d);
    __astree_assert(y >= 0.0f && y <= 10.0f);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

(* memory ------------------------------------------------------------ *)

let test_guard_on_array_element () =
  (* guards refine constant-subscript cells like assignments
     (Sect. 6.1.3) *)
  proves
    {|
volatile int raw;
int t[3];
float y;
int main(void) {
  __astree_input_range(raw, -10.0, 10.0);
  y = 0.0f;
  while (1) {
    t[1] = raw;
    if (t[1] > 2) { y = 100.0f / (float)t[1]; __astree_assert(t[1] >= 3); }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_guard_on_struct_field () =
  proves
    {|
volatile float m;
struct ch { float v; _Bool ok; };
struct ch c;
float r;
int main(void) {
  __astree_input_range(m, -5.0, 5.0);
  r = 0.0f;
  while (1) {
    c.v = m;
    if (c.v > 1.0f) { r = 1.0f / c.v; __astree_assert(r <= 1.0f); }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_strong_update_array_const_index () =
  proves
    {|
int t[4];
int main(void) {
  t[0] = 1; t[1] = 2; t[2] = 3; t[3] = 4;
  t[2] = 9;
  __astree_assert(t[2] == 9);
  __astree_assert(t[1] == 2);
  while (1) { __astree_wait_for_clock(); }
  return 0;
}
|}

let test_call_by_reference_strong () =
  proves
    {|
void set(float *p, float v) { *p = v; }
float g;
int main(void) {
  set(&g, 3.5f);
  __astree_assert(g >= 3.4f && g <= 3.6f);
  while (1) { __astree_wait_for_clock(); }
  return 0;
}
|}

let test_polyvariant_calls () =
  (* the same callee analyzed in two contexts keeps both precisions *)
  proves
    {|
float double_it(float x) { return x * 2.0f; }
float a; float b;
int main(void) {
  a = double_it(1.0f);
  b = double_it(100.0f);
  __astree_assert(a <= 2.1f);
  __astree_assert(b >= 199.0f);
  while (1) { __astree_wait_for_clock(); }
  return 0;
}
|}

let test_clock_bounds_counter_sum () =
  (* two counters both bounded by the same clock *)
  proves
    {|
volatile _Bool e1; volatile _Bool e2;
int c1; int c2;
int main(void) {
  __astree_input_range(e1, 0.0, 1.0);
  __astree_input_range(e2, 0.0, 1.0);
  c1 = 0; c2 = 0;
  while (1) {
    if (e1) { c1 = c1 + 1; }
    if (e2) { c2 = c2 + 1; }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_volatile_reads_not_cached () =
  (* two reads of a volatile may differ: the analysis must not prove
     equality *)
  refutes
    {|
volatile int n;
int main(void) {
  __astree_input_range(n, 0.0, 10.0);
  while (1) {
    __astree_assert(n == n);   /* NOT provable for a volatile */
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let suite =
  [
    Alcotest.test_case "comparison guards" `Quick test_guard_comparisons;
    Alcotest.test_case "conjunction" `Quick test_guard_conjunction;
    Alcotest.test_case "disjunction" `Quick test_guard_disjunction;
    Alcotest.test_case "negation" `Quick test_guard_negation;
    Alcotest.test_case "equality" `Quick test_guard_equality;
    Alcotest.test_case "unsatisfiable guard" `Quick test_unsat_guard_is_dead;
    Alcotest.test_case "signed overflow boundary" `Quick test_signed_overflow_boundary;
    Alcotest.test_case "unsigned range" `Quick test_unsigned_range;
    Alcotest.test_case "short conversion" `Quick test_short_conversion;
    Alcotest.test_case "mod and shifts" `Quick test_mod_and_shift;
    Alcotest.test_case "float division refinement" `Quick test_float_division_refinement;
    Alcotest.test_case "sqrt domain" `Quick test_sqrt_domain;
    Alcotest.test_case "fabs" `Quick test_fabs;
    Alcotest.test_case "guard on array element" `Quick test_guard_on_array_element;
    Alcotest.test_case "guard on struct field" `Quick test_guard_on_struct_field;
    Alcotest.test_case "strong array update" `Quick test_strong_update_array_const_index;
    Alcotest.test_case "call by reference" `Quick test_call_by_reference_strong;
    Alcotest.test_case "polyvariant calls" `Quick test_polyvariant_calls;
    Alcotest.test_case "clocked counters" `Quick test_clock_bounds_counter_sum;
    Alcotest.test_case "volatile reads distinct" `Quick test_volatile_reads_not_cached;
  ]

(* assignments read their right-hand side before the write --------- *)

(* The octagon of [x] still holds x's old bounds while [x := 0.5 * x]
   is transferred: read in the state after the write, the oracle gives
   x's new range, and their meet bounds the new value by half the old
   upper bound twice over.  [x <= 50] is all that holds, and [in = 100]
   reaches the overflow concretely. *)
let halving ~tail =
  Fmt.str
    {|volatile float in; float x; float y; short s;
int main(void) { __astree_input_range(in, 0.0, 100.0);
  x = in; y = x + 1.0f; x = 0.5f * x; %s return 0; }
|}
    tail

let halving_overflow = halving ~tail:"s = (short)(x * 1000.0f);"

let analyze_halving ?(cfg = C.Config.default) src =
  C.Analysis.analyze_string ~cfg ~file:"u4.c" src

let test_prewrite_overflow () =
  let r = analyze_halving halving_overflow in
  let noct =
    analyze_halving
      ~cfg:{ C.Config.default with C.Config.use_octagons = false }
      halving_overflow
  in
  Alcotest.(check int) "alarms with octagons" 1 (C.Analysis.n_alarms r);
  Alcotest.(check (list string))
    "same alarm as without octagons"
    (List.map (Fmt.str "%a" C.Alarm.pp) noct.C.Analysis.r_alarms)
    (List.map (Fmt.str "%a" C.Alarm.pp) r.C.Analysis.r_alarms)

let test_prewrite_assert () =
  refutes (halving ~tail:"__astree_assert(x <= 49.0f);");
  proves (halving ~tail:"__astree_assert(x <= 50.0f);")

let test_prewrite_concrete () =
  let p, _ = C.Analysis.compile [ ("u4.c", halving_overflow) ] in
  match
    Astree_frontend.Interp.run ~input:(fun _ -> 100.0) p
  with
  | Astree_frontend.Interp.Error (Astree_frontend.Interp.Int_overflow, l) ->
      Alcotest.(check int) "overflow line" 3 l.Astree_frontend.Loc.line
  | Astree_frontend.Interp.Error (k, _) ->
      Alcotest.failf "unexpected error %a" Astree_frontend.Interp.pp_error_kind
        k
  | Astree_frontend.Interp.Finished -> Alcotest.fail "no overflow reached"

(* The same mistake in the decision-tree domain: under [b] the leaf
   holds x's old value, and met with x's new range it is empty, which
   made the branch dead and dropped the overflow; [in = 10] reaches it. *)
let dtree_src =
  {|volatile int in;
_Bool b;
int x;
short s;
int main(void) {
  __astree_input_range(in, 0.0, 10.0);
  while (1) {
    b = (in > 5);
    x = b * 10 + in;
    if (b) {
      x = x + 40000;
      s = (short) x;
    }
    __astree_wait_for_clock();
  }
  return 0;
}|}

let test_prewrite_dtree () =
  let n cfg = C.Analysis.n_alarms (analyze_halving ~cfg dtree_src) in
  Alcotest.(check int) "default" 1 (n C.Config.default);
  Alcotest.(check int) "decision trees alone" 1
    (n { C.Config.default with C.Config.use_octagons = false });
  let p, _ = C.Analysis.compile [ ("dt.c", dtree_src) ] in
  match Astree_frontend.Interp.run ~max_ticks:2 ~input:(fun _ -> 10.0) p with
  | Astree_frontend.Interp.Error (Astree_frontend.Interp.Int_overflow, l) ->
      Alcotest.(check int) "overflow line" 12 l.Astree_frontend.Loc.line
  | _ -> Alcotest.fail "the overflow is not reached"

let prewrite_suite =
  [
    Alcotest.test_case "octagon assign: overflow" `Quick test_prewrite_overflow;
    Alcotest.test_case "octagon assign: assert" `Quick test_prewrite_assert;
    Alcotest.test_case "octagon assign: concrete run" `Quick
      test_prewrite_concrete;
    Alcotest.test_case "decision-tree assign: overflow" `Quick
      test_prewrite_dtree;
  ]
