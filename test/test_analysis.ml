(* End-to-end analyzer tests: each refinement of the paper eliminates the
   false alarms of its target idiom, true errors are always reported, and
   the iteration-strategy parameters behave as Sect. 7.1 describes. *)

module C = Astree_core
module D = Astree_domains

let alarms ?(cfg = C.Config.default) src =
  C.Analysis.n_alarms (C.Analysis.analyze_string ~cfg src)

let no_oct = { C.Config.default with C.Config.use_octagons = false }
let no_ell = { C.Config.default with C.Config.use_ellipsoids = false }
let no_dt = { C.Config.default with C.Config.use_decision_trees = false }
(* the octagon transfer functions are built on linear forms by
   construction (Sect. 6.2.2), so the linearization ablation is only
   meaningful with octagons off, as in the E2 ladder *)
let no_lin =
  {
    C.Config.default with
    C.Config.use_linearization = false;
    use_octagons = false;
  }
let no_clock = { C.Config.default with C.Config.use_clocked = false }

let no_thresholds =
  {
    C.Config.default with
    C.Config.widening_thresholds = D.Thresholds.none;
    delay_widening = 0;
  }

(* ------------------------------------------------------------------ *)
(* The four paper idioms                                               *)
(* ------------------------------------------------------------------ *)

let counter_src =
  {|
volatile _Bool ev;
int cnt;
int main(void) {
  __astree_input_range(ev, 0.0, 1.0);
  cnt = 0;
  while (1) {
    if (ev) { cnt = cnt + 1; }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_counter_clocked () =
  Alcotest.(check int) "clocked proves it" 0 (alarms counter_src);
  Alcotest.(check bool) "without the clocked domain it alarms" true
    (alarms ~cfg:no_clock counter_src > 0)

let limiter_src =
  {|
volatile float xin;
volatile float vmax;
float Z; float L;
short actuator;
int main(void) {
  __astree_input_range(xin, -100.0, 100.0);
  __astree_input_range(vmax, 0.0, 5.0);
  Z = 0.0f; L = 0.0f; actuator = 0;
  while (1) {
    float R; float x; float v;
    x = xin; v = vmax;
    R = x - Z;
    L = x;
    if (R > v) { L = Z + v; }
    Z = L;
    actuator = (short)(L * 10.0f);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_limiter_octagons () =
  Alcotest.(check int) "octagons prove it" 0 (alarms limiter_src);
  Alcotest.(check bool) "without octagons it alarms" true
    (alarms ~cfg:no_oct limiter_src > 0)

let filter_src =
  {|
volatile float fin;
volatile _Bool rst;
float X; float Y;
int main(void) {
  __astree_input_range(fin, -1.0, 1.0);
  __astree_input_range(rst, 0.0, 1.0);
  X = 0.0f; Y = 0.0f;
  while (1) {
    float t;
    t = fin;
    if (rst) { Y = t; X = t; }
    else { float X2; X2 = 1.5f * X - 0.7f * Y + t; Y = X; X = X2; }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_filter_ellipsoids () =
  Alcotest.(check int) "ellipsoids prove it" 0 (alarms filter_src);
  Alcotest.(check bool) "without ellipsoids it alarms" true
    (alarms ~cfg:no_ell filter_src > 0)

let relay_src =
  {|
volatile int raw;
_Bool bz;
float y;
int main(void) {
  __astree_input_range(raw, 0.0, 100.0);
  y = 0.0f;
  while (1) {
    int x;
    x = raw;
    bz = (x == 0);
    if (!bz) { y = 1.0f / (float)x; }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_relay_decision_trees () =
  Alcotest.(check int) "decision trees prove it" 0 (alarms relay_src);
  Alcotest.(check bool) "without decision trees it alarms" true
    (alarms ~cfg:no_dt relay_src > 0)

let decay_src =
  {|
volatile float u;
float x;
short xo;
int main(void) {
  __astree_input_range(u, -1.0, 1.0);
  x = 0.0f; xo = 0;
  while (1) {
    x = x + u;
    x = x - 0.25f * x;
    xo = (short)(x * 100.0f);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_decay_linearization () =
  Alcotest.(check int) "linearization proves it" 0 (alarms decay_src);
  Alcotest.(check bool) "without linearization it alarms" true
    (alarms ~cfg:no_lin decay_src > 0)

let piecewise_src =
  {|
volatile float pin;
float out;
void compute(void) {
  float s; float o; float x;
  x = pin;
  if (x < 0.0f) { s = 2.0f; o = 1.0f; } else { s = -2.0f; o = 3.0f; }
  out = o / s;
}
int main(void) {
  __astree_input_range(pin, -10.0, 10.0);
  out = 0.0f;
  while (1) {
    compute();
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_piecewise_partitioning () =
  let part =
    { C.Config.default with C.Config.partitioned_functions = [ "compute" ] }
  in
  Alcotest.(check int) "partitioning proves it" 0 (alarms ~cfg:part piecewise_src);
  Alcotest.(check bool) "without partitioning it alarms" true
    (alarms piecewise_src > 0)

let integrator_src =
  {|
volatile float u;
float x;
int main(void) {
  __astree_input_range(u, -5.0, 5.0);
  x = 0.0f;
  while (1) {
    x = 0.9f * x + u;
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_integrator_thresholds () =
  (* bounded by u/(1-alpha) = 50: with thresholds the invariant is a
     small finite interval; without, it escapes to the float range *)
  let r = C.Analysis.analyze_string integrator_src in
  Alcotest.(check int) "no alarms" 0 (C.Analysis.n_alarms r);
  let bound = ref Float.infinity in
  List.iter
    (fun (_, (inv : C.Astate.t)) ->
      C.Env.iter
        (fun cid av ->
          let c = C.Cell.of_id r.C.Analysis.r_actx.C.Transfer.intern cid in
          if C.Cell.to_string c = "x" then
            match C.Avalue.itv av with
            | D.Itv.Float (_, hi) -> bound := hi
            | _ -> ())
        inv.C.Astate.env)
    (C.Analysis.invariants r);
  Alcotest.(check bool) "tight bound" true (!bound <= 1000.0);
  let r' = C.Analysis.analyze_string ~cfg:no_thresholds integrator_src in
  ignore r'
  (* without thresholds the invariant is the whole float range; whether
     that alarms depends on contraction — checked in the ladder tests *)

(* ------------------------------------------------------------------ *)
(* True errors are reported                                            *)
(* ------------------------------------------------------------------ *)

let has_kind k (r : C.Analysis.result) =
  List.exists (fun (a : C.Alarm.t) -> a.C.Alarm.a_kind = k) r.C.Analysis.r_alarms

let test_true_div_by_zero () =
  let src =
    {|
volatile int n;
float y;
int main(void) {
  __astree_input_range(n, 0.0, 10.0);
  while (1) { y = 1.0f / (float)(n - 5); __astree_wait_for_clock(); }
  return 0;
}
|}
  in
  let r = C.Analysis.analyze_string src in
  Alcotest.(check bool) "reported" true (has_kind C.Alarm.Div_by_zero r)

let test_true_oob () =
  let src =
    {|
volatile int i;
float t[4];
float y;
int main(void) {
  __astree_input_range(i, 0.0, 4.0);
  while (1) { y = t[i]; __astree_wait_for_clock(); }
  return 0;
}
|}
  in
  let r = C.Analysis.analyze_string src in
  Alcotest.(check bool) "reported" true (has_kind C.Alarm.Out_of_bounds r)

let test_true_int_overflow () =
  let src =
    {|
int x;
int main(void) {
  x = 1;
  while (1) { x = x * 2; __astree_wait_for_clock(); }
  return 0;
}
|}
  in
  let r = C.Analysis.analyze_string src in
  Alcotest.(check bool) "reported" true (has_kind C.Alarm.Int_overflow r)

let test_assert_checked () =
  let src =
    {|
volatile int n;
int main(void) {
  __astree_input_range(n, 0.0, 10.0);
  while (1) { int x; x = n; __astree_assert(x < 5); __astree_wait_for_clock(); }
  return 0;
}
|}
  in
  let r = C.Analysis.analyze_string src in
  Alcotest.(check bool) "assert alarm" true (has_kind C.Alarm.Assert_failure r)

let test_assume_trusted () =
  let src =
    {|
volatile int n;
float y;
int main(void) {
  __astree_input_range(n, 0.0, 10.0);
  while (1) {
    int x;
    x = n;
    __astree_assume(x > 0);
    y = 1.0f / (float)x;
    __astree_wait_for_clock();
  }
  return 0;
}
|}
  in
  Alcotest.(check int) "assume removes the alarm" 0 (alarms src)

(* ------------------------------------------------------------------ *)
(* Memory-domain behaviours (Sect. 6.1)                                *)
(* ------------------------------------------------------------------ *)

let test_expanded_vs_shrunk_arrays () =
  (* a small array is expanded: per-element precision *)
  let src =
    {|
int t[4];
int main(void) {
  t[0] = 10; t[1] = 20; t[2] = 30; t[3] = 40;
  __astree_assert(t[2] == 30);
  while (1) { __astree_wait_for_clock(); }
  return 0;
}
|}
  in
  Alcotest.(check int) "expanded precise" 0 (alarms src);
  (* with expansion disabled the array shrinks to one cell and the
     element-wise assertion cannot be proved *)
  let cfg = { C.Config.default with C.Config.expand_array_max = 2 } in
  Alcotest.(check bool) "shrunk imprecise" true (alarms ~cfg src > 0)

let test_weak_update_unknown_index () =
  let src =
    {|
volatile int i;
int t[4];
int main(void) {
  __astree_input_range(i, 0.0, 3.0);
  t[0] = 1; t[1] = 1; t[2] = 1; t[3] = 1;
  while (1) {
    int k;
    k = i;
    t[k] = 2;
    /* weak update: t[0] may be 1 or 2, but never anything else */
    __astree_assert(t[0] >= 1);
    __astree_assert(t[0] <= 2);
    __astree_wait_for_clock();
  }
  return 0;
}
|}
  in
  Alcotest.(check int) "weak update" 0 (alarms src)

let test_struct_field_sensitivity () =
  let src =
    {|
struct chan { float val; int ok; };
struct chan c;
int main(void) {
  c.val = 1.5f;
  c.ok = 1;
  __astree_assert(c.ok == 1);
  while (1) { __astree_wait_for_clock(); }
  return 0;
}
|}
  in
  Alcotest.(check int) "field-sensitive" 0 (alarms src)

let test_naive_env_same_result () =
  (* the naive-array environments (E5 ablation) compute the same alarms *)
  let cfg = { C.Config.default with C.Config.naive_environments = true } in
  Alcotest.(check int) "same on limiter" (alarms limiter_src)
    (alarms ~cfg limiter_src);
  Alcotest.(check int) "same on relay" (alarms relay_src) (alarms ~cfg relay_src)

(* ------------------------------------------------------------------ *)
(* Iteration strategies (Sect. 7.1)                                    *)
(* ------------------------------------------------------------------ *)

let test_unrolling_improves_first_iteration () =
  (* first loop iteration differs from the rest: unrolling isolates it *)
  let src =
    {|
int first;
volatile int inp;
int y;
int main(void) {
  __astree_input_range(inp, 1.0, 10.0);
  first = 1;
  y = 1;
  while (1) {
    if (first) { y = 5; first = 0; }
    __astree_assert(y >= 1);
    y = inp;
    __astree_wait_for_clock();
  }
  return 0;
}
|}
  in
  Alcotest.(check int) "with unrolling" 0 (alarms src)

let test_useful_packs_reuse () =
  let r = C.Analysis.analyze_string limiter_src in
  let useful = C.Analysis.useful_octagon_packs r in
  Alcotest.(check bool) "some packs useful" true (useful <> []);
  let cfg =
    { C.Config.default with C.Config.useful_packs_only = Some ("t", useful) }
  in
  (* same precision with only the useful packs (Sect. 7.2.2) *)
  Alcotest.(check int) "same alarms" 0 (alarms ~cfg limiter_src)

let test_volatile_without_spec_is_top () =
  (* a volatile input without a range specification can be anything *)
  let src =
    {|
volatile int n;
int y;
int main(void) {
  while (1) { y = 100 / (n + 1); __astree_wait_for_clock(); }
  return 0;
}
|}
  in
  Alcotest.(check bool) "alarms" true (alarms src > 0)

let suite =
  [
    Alcotest.test_case "counter via clocked domain" `Quick test_counter_clocked;
    Alcotest.test_case "rate limiter via octagons" `Quick test_limiter_octagons;
    Alcotest.test_case "filter via ellipsoids" `Quick test_filter_ellipsoids;
    Alcotest.test_case "relay via decision trees" `Quick test_relay_decision_trees;
    Alcotest.test_case "decay via linearization" `Quick test_decay_linearization;
    Alcotest.test_case "piecewise via partitioning" `Quick test_piecewise_partitioning;
    Alcotest.test_case "integrator via thresholds" `Quick test_integrator_thresholds;
    Alcotest.test_case "true division by zero" `Quick test_true_div_by_zero;
    Alcotest.test_case "true out-of-bounds" `Quick test_true_oob;
    Alcotest.test_case "true overflow" `Quick test_true_int_overflow;
    Alcotest.test_case "assert checked" `Quick test_assert_checked;
    Alcotest.test_case "assume trusted" `Quick test_assume_trusted;
    Alcotest.test_case "expanded vs shrunk arrays" `Quick test_expanded_vs_shrunk_arrays;
    Alcotest.test_case "weak updates" `Quick test_weak_update_unknown_index;
    Alcotest.test_case "struct field sensitivity" `Quick test_struct_field_sensitivity;
    Alcotest.test_case "naive environments agree" `Quick test_naive_env_same_result;
    Alcotest.test_case "loop unrolling" `Quick test_unrolling_improves_first_iteration;
    Alcotest.test_case "useful-pack reuse" `Quick test_useful_packs_reuse;
    Alcotest.test_case "volatile without spec" `Quick test_volatile_without_spec_is_top;
  ]
