(* Iterator tests (Sect. 5.3-5.5, 7.1): control-flow outcomes, loop
   strategies, polyvariant calls, return accumulation, partitioning —
   each cross-checked against the concrete interpreter where sensible. *)

module C = Astree_core
module F = Astree_frontend
module G = Astree_gen
module Metrics = Astree_obs.Metrics

let alarms ?(cfg = C.Config.default) src =
  C.Analysis.n_alarms (C.Analysis.analyze_string ~cfg src)

let proves src = Alcotest.(check int) "proved" 0 (alarms src)
let refutes src = Alcotest.(check bool) "alarmed" true (alarms src > 0)

let runs_concretely src =
  let ast = F.Parser.parse_string ~file:"<t>" src in
  let p = F.Typecheck.elab_program ast in
  match F.Interp.run ~max_ticks:200 p with
  | F.Interp.Finished -> ()
  | F.Interp.Error (k, l) ->
      Alcotest.failf "concrete error %a at %a" F.Interp.pp_error_kind k
        F.Loc.pp l

(* break / continue flows -------------------------------------------- *)

let break_src =
  {|
volatile int n;
int found;
int main(void) {
  __astree_input_range(n, 0.0, 9.0);
  found = 0;
  while (1) {
    int i;
    int target;
    target = n;
    i = 0;
    while (i < 10) {
      if (i == target) { found = i; break; }
      i = i + 1;
    }
    __astree_assert(found >= 0 && found <= 9);
    __astree_assert(i <= 10);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_break () =
  proves break_src;
  runs_concretely break_src

let continue_src =
  {|
volatile int n;
int sum;
int main(void) {
  __astree_input_range(n, 0.0, 9.0);
  sum = 0;
  while (1) {
    int i;
    i = 0;
    sum = 0;
    while (i < 10) {
      i = i + 1;
      if (i == 5) { continue; }
      sum = sum + 1;
    }
    __astree_assert(sum <= 10);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_continue () =
  proves continue_src;
  runs_concretely continue_src

let nested_src =
  {|
int total;
int main(void) {
  total = 0;
  while (1) {
    int i; int j; int acc;
    acc = 0;
    i = 0;
    while (i < 5) {
      j = 0;
      while (j < 4) {
        acc = acc + 1;
        j = j + 1;
      }
      i = i + 1;
    }
    __astree_assert(i == 5);
    __astree_assert(acc == 20);
    total = acc;
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_nested_loops () =
  (* acc == 20 needs the affine relation acc = 4*i, beyond octagons:
     with the default strategy the assertion raises a (false) alarm;
     fully unrolling the two bounded inner loops (per-loop factors,
     Sect. 7.1.1) proves it exactly *)
  Alcotest.(check bool) "default strategy cannot" true (alarms nested_src > 0);
  let cfg =
    {
      C.Config.default with
      C.Config.loop_unroll_overrides = [ (1, 5); (2, 4) ];
    }
  in
  Alcotest.(check int) "full unrolling proves acc == 20" 0
    (alarms ~cfg nested_src)

let test_do_while () =
  proves
    {|
int k;
int main(void) {
  while (1) {
    int i;
    i = 0;
    do { i = i + 1; } while (i < 3);
    __astree_assert(i >= 1 && i <= 3);
    k = i;
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_for_loop_bound () =
  (* s == 16 needs s = 2*i; fully unrolling the bounded for-loop
     (Sect. 7.1.1) makes the analysis exact *)
  let src =
    {|
int out;
int main(void) {
  while (1) {
    int i; int s;
    s = 0;
    for (i = 0; i < 8; i = i + 1) { s = s + 2; }
    __astree_assert(i == 8);
    __astree_assert(s == 16);
    out = s;
    __astree_wait_for_clock();
  }
  return 0;
}
|}
  in
  let cfg =
    { C.Config.default with C.Config.loop_unroll_overrides = [ (1, 8) ] }
  in
  Alcotest.(check int) "full unrolling proves s == 16" 0 (alarms ~cfg src)

(* returns and side effects ------------------------------------------ *)

let test_early_return_env () =
  (* the environment at the return statement is accumulated with the
     fall-through environment (Sect. 5.4) *)
  proves
    {|
int g;
int pick(int c) {
  g = 1;
  if (c > 0) { g = 2; return 10; }
  g = 3;
  return 20;
}
volatile int vc;
int r;
int main(void) {
  __astree_input_range(vc, -5.0, 5.0);
  while (1) {
    r = pick(vc);
    /* r == 10 || r == 20 is a disjunction of points, outside intervals */
    __astree_assert(r >= 10 && r <= 20);
    __astree_assert(g >= 2 && g <= 3);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_side_effect_through_reference () =
  proves
    {|
void bump(int *p, int by) { *p = *p + by; }
int counter;
int main(void) {
  counter = 0;
  while (1) {
    bump(&counter, 2);
    if (counter > 100) { counter = 0; }
    __astree_assert(counter <= 102);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_call_in_condition () =
  proves
    {|
volatile int v;
int threshold(void) { return 50; }
int hits;
int main(void) {
  __astree_input_range(v, 0.0, 100.0);
  hits = 0;
  while (1) {
    if (v > threshold()) { hits = hits + 1; }
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_void_function () =
  proves
    {|
float st;
void reset(void) { st = 0.0f; }
int main(void) {
  st = 5.0f;
  while (1) {
    reset();
    __astree_assert(st >= 0.0f && st <= 0.0f);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

(* partitioning inside functions with inner control flow -------------- *)

let test_partitioned_function_with_inner_if () =
  let src =
    {|
volatile float w;
float out;
void sel(void) {
  float den; float num;
  float x;
  x = w;
  if (x < -1.0f) { den = -2.0f; num = 1.0f; }
  else { if (x > 1.0f) { den = 2.0f; num = 1.0f; } else { den = 1.0f; num = 0.0f; } }
  out = num / den;
}
int main(void) {
  __astree_input_range(w, -10.0, 10.0);
  out = 0.0f;
  while (1) { sel(); __astree_wait_for_clock(); }
  return 0;
}
|}
  in
  let part =
    { C.Config.default with C.Config.partitioned_functions = [ "sel" ] }
  in
  Alcotest.(check int) "partitioned proves" 0 (alarms ~cfg:part src);
  Alcotest.(check bool) "merged alarms" true (alarms src > 0)

let test_partition_cap () =
  (* many branches in a partitioned function: the partition bound keeps
     the trace count finite and the result sound *)
  let src =
    {|
volatile int s;
float y;
void f(void) {
  float a;
  a = 1.0f;
  if (s == 1) { a = 2.0f; }
  if (s == 2) { a = 3.0f; }
  if (s == 3) { a = 4.0f; }
  if (s == 4) { a = 5.0f; }
  if (s == 5) { a = 6.0f; }
  y = 100.0f / a;
}
int main(void) {
  __astree_input_range(s, 0.0, 5.0);
  y = 0.0f;
  while (1) { f(); __astree_wait_for_clock(); }
  return 0;
}
|}
  in
  let cfg =
    {
      C.Config.default with
      C.Config.partitioned_functions = [ "f" ];
      max_partitions = 4;
    }
  in
  Alcotest.(check int) "still precise enough" 0 (alarms ~cfg src)

(* widening / narrowing edges ----------------------------------------- *)

let test_narrowing_recovers_overshoot () =
  (* the invariant parks at a widening threshold; the decreasing
     iterations must pull it back near the least fixpoint *)
  let src =
    {|
volatile float u;
float acc;
short reg;
int main(void) {
  __astree_input_range(u, -2.0, 2.0);
  acc = 0.0f;
  reg = 0;
  while (1) {
    acc = 0.5f * acc + u;
    reg = (short)(acc * 1000.0f);   /* needs |acc| <= ~32 */
    __astree_wait_for_clock();
  }
  return 0;
}
|}
  in
  proves src

let test_zero_iterations_loop () =
  proves
    {|
int x;
int main(void) {
  x = 0;
  while (1) {
    int i;
    i = 10;
    while (i < 10) { i = i + 1; x = 99; }
    __astree_assert(x == 0);
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_loop_guard_exit_refinement () =
  proves
    {|
int last;
int main(void) {
  while (1) {
    int i;
    i = 0;
    while (i < 7) { i = i + 1; }
    __astree_assert(i == 7);
    last = i;
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_unroll_override () =
  (* per-loop unrolling override through the config *)
  let src =
    {|
int x;
int main(void) {
  x = 0;
  while (1) {
    x = 1;
    __astree_wait_for_clock();
  }
  return 0;
}
|}
  in
  let cfg =
    { C.Config.default with C.Config.loop_unroll_overrides = [ (0, 3) ] }
  in
  Alcotest.(check int) "still sound" 0 (alarms ~cfg src)

let test_checking_mode_covers_loop_body () =
  (* alarms inside loop bodies are found by the extra checking pass *)
  refutes
    {|
volatile int d;
int y;
int main(void) {
  __astree_input_range(d, 0.0, 3.0);
  while (1) {
    y = 100 / d;      /* d may be 0 */
    __astree_wait_for_clock();
  }
  return 0;
}
|}

(* Calls resolve through the context's function table: an undefined
   callee and recursion are still rejected, and when a name is bound
   twice the first definition is the one analyzed. *)
let test_call_resolution () =
  let compile src = fst (C.Analysis.compile [ ("calls.c", src) ]) in
  let analyze p = C.Analysis.n_alarms (C.Analysis.analyze p) in
  let error p =
    match analyze p with
    | _ -> Alcotest.fail "analysis accepted the program"
    | exception C.Iterator.Analysis_error msg -> msg
  in
  let p =
    compile
      "int g(void) { return 1; }\n\
       int main(void) { int r; r = g(); __astree_assert(r == 1); return 0; }"
  in
  let funs = p.F.Tast.p_funs in
  Alcotest.(check int) "clean" 0 (analyze p);
  Alcotest.(check string) "unknown callee" "call to unknown function g"
    (error { p with F.Tast.p_funs = List.remove_assoc "g" funs });
  (* a second, body-less [g] returns no value: analyzing it instead of
     the first would leave [r] at its type range and alarm *)
  let g = List.assoc "g" funs in
  let shadowed = funs @ [ ("g", { g with F.Tast.fd_body = [] }) ] in
  Alcotest.(check int) "first definition wins" 0
    (analyze { p with F.Tast.p_funs = shadowed });
  let rec_p =
    compile
      "int f(int n) { if (n > 0) { return f(n - 1); } return 0; }\n\
       int main(void) { int r; r = f(3); return r; }"
  in
  Alcotest.(check string) "recursion"
    "recursion detected through f (not in the subset)" (error rec_p)

(* Pass reuse (DESIGN.md §6).  [passes f] runs [f] and returns the body
   passes it computed and reused. *)
let passes f =
  let before = Metrics.snapshot () in
  let r = f () in
  let d = Metrics.diff before in
  let get name = Option.value ~default:0 (Metrics.find_int d name) in
  (r, (get "iter.body_passes", get "iter.passes_reused"))

(* On a 2-task generator member, 74 passes are computed and 12 reused.
   The iterator asks for 86 = 74 + 12 passes on this member: reuse
   changes which passes run, never how many the iterator asks for.  (It
   asked for 134 while the clock climbed the threshold ladder one rung
   per iterate; it now widens straight to [max_clock].)  Workers ship their counters back, so -j 2 counts
   what -j 1 counts. *)
let test_pass_reuse_counters () =
  let g =
    G.Generator.generate_tasks
      { G.Generator.default with seed = 5; target_lines = 300 }
      ~tasks:2
  in
  let p, _ = C.Analysis.compile [ ("tasks.c", g.G.Generator.source) ] in
  let run jobs =
    snd
      (passes (fun () ->
           Astree_conc.Fixpoint.analyze
             ~cfg:{ C.Config.default with C.Config.jobs }
             ~tasks:g.G.Generator.task_fns p))
  in
  let ((computed, reused) as j1) = run 1 in
  Alcotest.(check (pair int int)) "computed, reused" (74, 12) j1;
  Alcotest.(check int) "computed + reused = passes without reuse" 86
    (computed + reused);
  Alcotest.(check (pair int int)) "-j 2 = -j 1" j1 (run 2)

(* The checking pass reused from narrowing keeps every alarm's
   provenance: the MD5 of the --explain rendering of a bug-injected
   member is the one the iterator gave when it always recomputed the
   checking pass (the fingerprint ignores provenance). *)
let test_reused_checking_pass_explain () =
  let g =
    G.Generator.generate
      { G.Generator.default with seed = 3; target_lines = 800; bug_ratio = 0.3 }
  in
  let p, _ = C.Analysis.compile [ ("bugs.c", g.G.Generator.source) ] in
  let r, counts = passes (fun () -> C.Analysis.analyze p) in
  Alcotest.(check (pair int int)) "computed, reused" (50, 3) counts;
  Alcotest.(check int) "alarms" 37 (C.Analysis.n_alarms r);
  let text =
    String.concat "\n"
      (List.map (Fmt.str "%a" C.Alarm.pp_explain) r.C.Analysis.r_alarms)
  in
  Alcotest.(check string) "explain md5" "b607b85ee246430b20196f4bee8af17e"
    (Digest.to_hex (Digest.string text))

(* Differential iteration: a loop-body call whose framed input did not
   change since the previous iterate replays that iterate's result — here
   a callee with its own loop (the replay restores its invariant), one
   that may overflow, and one bound by reference, while [big] climbs the
   threshold ladder.  The alarms with their provenance and the invariant
   dump are those the iterator gave when it recomputed every call (MD5
   pinned before calls were replayed). *)
let replay_src =
  {|volatile int in;
int acc;
int big;
short s;
int k;
int t;
void settle(int n) {
  int i;
  i = 0;
  while (i < n) { i = i + 1; }
  acc = i + k;
}
void bump(int *c) {
  *c = *c + 1000;
  s = (short) *c;
}
void probe(void) {
  t = k * 1000000000;
}
int main(void) {
  __astree_input_range(in, 0.0, 10.0);
  big = 0;
  while (1) {
    k = in;
    settle(5);
    probe();
    bump(&big);
  }
  return 0;
}
|}

let test_call_replay () =
  let before = Metrics.snapshot () in
  let r = C.Analysis.analyze_string ~file:"replay.c" replay_src in
  let d = Metrics.diff before in
  let replayed = Option.value ~default:0 (Metrics.find_int d "iter.calls_replayed") in
  Alcotest.(check bool) "calls replayed" true (replayed > 0);
  Alcotest.(check int) "alarms" 3 (C.Analysis.n_alarms r);
  let text =
    String.concat "\n"
      (List.map (Fmt.str "%a" C.Alarm.pp_explain) r.C.Analysis.r_alarms)
    ^ C.Invariant_dump.to_string r
  in
  Alcotest.(check string) "explain and dump md5" "3b87f89710790d510076006f644da6ce"
    (Digest.to_hex (Digest.string text))

(* The framed comparison behind a replay is exact, down to what a summary
   key encodes: a copy with the same contents is the same entry; an
   octagon whose diagonal holds -0.0 for 0.0 (equal as floats), one whose
   closure state differs, or another clock is not. *)
let test_framed_entry_exact () =
  let module O = Astree_domains.Octagon in
  let r = C.Analysis.analyze_string ~file:"replay.c" replay_src in
  let a = r.C.Analysis.r_actx in
  let inv =
    Hashtbl.fold
      (fun _ st acc ->
        if C.Ptmap.is_empty st.C.Astate.rel.C.Relstate.octs then acc else Some st)
      a.C.Transfer.invariants None
    |> Option.get
  in
  let fr = C.Frame.whole a.C.Transfer.frames in
  let e = C.Frame.entry fr inv in
  let same st = C.Frame.same_entry fr e st in
  let pid, o = List.hd (C.Ptmap.bindings inv.C.Astate.rel.C.Relstate.octs) in
  let with_oct o' =
    {
      inv with
      C.Astate.rel =
        {
          inv.C.Astate.rel with
          C.Relstate.octs = C.Ptmap.add pid o' inv.C.Astate.rel.C.Relstate.octs;
        };
    }
  in
  Alcotest.(check bool) "itself" true (same inv);
  Alcotest.(check bool) "a copy" true (same (with_oct (O.copy o)));
  let neg_zero = O.copy o in
  neg_zero.O.m.(0) <- -0.0;
  Alcotest.(check bool) "-0.0 is equal" true (O.equal o neg_zero);
  Alcotest.(check bool) "-0.0 is not the same" false (same (with_oct neg_zero));
  let other_closure = O.copy o in
  other_closure.O.closure <-
    (match o.O.closure with O.Unclosed -> O.Closed | _ -> O.Unclosed);
  Alcotest.(check bool) "closure state" false (same (with_oct other_closure));
  Alcotest.(check bool) "clock" false
    (same { inv with C.Astate.clock = Astree_domains.Itv.int_range 0 7 })

(* The clock widens straight to [max_clock] (DESIGN.md §6).  A keyed
   tier that only watches sees the clock at the loop body's call on
   every pass that does not replay it: its upper bound grows by one tick per
   pass through the plain joins before the first widening, then is
   [max_clock] at every later pass, never a threshold rung below it and
   never +oo, also under [Thresholds.none] (the safety net and
   degradation level 3).  The loop invariant's clock is [1, max_clock]:
   the loop's first pass is unrolled. *)
let clock_src =
  {|
volatile int v;
int x;
void step(void) { x = v; }
int main(void) {
  __astree_input_range(v, 0.0, 10.0);
  while (1) {
    step();
    __astree_wait_for_clock();
  }
  return 0;
}
|}

let test_clock_widens_to_max_clock () =
  let p, _ = C.Analysis.compile [ ("clock.c", clock_src) ] in
  let check name thresholds =
    let cfg =
      {
        C.Config.default with
        C.Config.max_clock = 50;
        widening_thresholds = thresholds;
      }
    in
    let seen = ref [] in
    let ses = C.Transfer.new_session () in
    ses.C.Transfer.ses_keyed <-
      Some
        {
          C.Transfer.kt_names =
            { C.Frame.var_name = (fun v -> v.F.Tast.v_name); loop_name = string_of_int };
          kt_key =
            (fun _ ~fname:_ _ _ st ->
              seen := st.C.Astate.clock :: !seen;
              None);
          kt_find = (fun _ -> None);
          kt_add = (fun _ _ -> ());
        };
    let min0 = !C.Memo.memo_min_stmts in
    C.Memo.memo_min_stmts := 0;
    let r =
      Fun.protect
        ~finally:(fun () -> C.Memo.memo_min_stmts := min0)
        (fun () -> C.Analysis.analyze ~session:ses ~cfg p)
    in
    let his =
      List.rev_map
        (function
          | Astree_domains.Itv.Int (_, hi) -> hi
          | i -> Alcotest.failf "%s: clock %a" name Astree_domains.Itv.pp i)
        !seen
    in
    let rec widened prev = function
      | [] -> Alcotest.failf "%s: the clock never reached max_clock" name
      | 50 :: rest ->
          List.iter
            (fun hi -> Alcotest.(check int) (name ^ ": after widening") 50 hi)
            rest
      | hi :: rest ->
          if hi > prev + 1 then
            Alcotest.failf "%s: the clock jumped from %d to %d, not to 50" name
              prev hi;
          widened hi rest
    in
    widened 0 his;
    let inv =
      Hashtbl.fold (fun _ st _ -> st.C.Astate.clock)
        r.C.Analysis.r_actx.C.Transfer.invariants Astree_domains.Itv.Bot
    in
    Alcotest.(check string) (name ^ ": loop invariant") "[1, 50]"
      (Fmt.str "%a" Astree_domains.Itv.pp inv)
  in
  check "default thresholds" C.Config.default.C.Config.widening_thresholds;
  check "Thresholds.none" Astree_domains.Thresholds.none

(* A callee's statements set the alarm collector's call chain; the loop
   guard evaluated right after a computed call must report the caller's
   chain, as it does after a call replayed from a loop's slot or from
   the summary store.  [work] reads [k0], so the call is computed again
   on each new range of [k]; it is big enough for the store to key it. *)
let chain_src =
  "volatile int v;\nint y; int k0;\nvoid work(void) {\n"
  ^ String.concat "" (List.init 36 (fun _ -> "  y = k0;\n"))
  ^ "}\n\
     int main(void) {\n\
    \  int k;\n\
    \  __astree_input_range(v, 0.0, 10.0);\n\
    \  while (1) {\n\
    \    k = 0;\n\
    \    while (100 / (k - 3) != 7) { k = k + 1; k0 = k; work(); }\n\
    \    __astree_wait_for_clock();\n\
    \  }\n\
    \  return 0;\n\
     }\n"

let test_chain_after_call () =
  let r = C.Analysis.analyze_string ~file:"chain.c" chain_src in
  let chains =
    List.filter_map
      (fun (al : C.Alarm.t) ->
        if al.C.Alarm.a_kind = C.Alarm.Div_by_zero then
          Option.map (fun pv -> pv.C.Alarm.p_chain) al.C.Alarm.a_prov
        else None)
      r.C.Analysis.r_alarms
  in
  Alcotest.(check (list (list string))) "the guard's alarm is main's"
    [ [ "main" ] ] chains

let suite =
  [
    Alcotest.test_case "break" `Quick test_break;
    Alcotest.test_case "continue" `Quick test_continue;
    Alcotest.test_case "nested loops" `Quick test_nested_loops;
    Alcotest.test_case "do-while" `Quick test_do_while;
    Alcotest.test_case "for-loop bound" `Quick test_for_loop_bound;
    Alcotest.test_case "early-return environments" `Quick test_early_return_env;
    Alcotest.test_case "reference side effects" `Quick test_side_effect_through_reference;
    Alcotest.test_case "call in condition" `Quick test_call_in_condition;
    Alcotest.test_case "void function" `Quick test_void_function;
    Alcotest.test_case "partitioned inner ifs" `Quick test_partitioned_function_with_inner_if;
    Alcotest.test_case "partition cap" `Quick test_partition_cap;
    Alcotest.test_case "narrowing recovers overshoot" `Quick test_narrowing_recovers_overshoot;
    Alcotest.test_case "zero-iteration loop" `Quick test_zero_iterations_loop;
    Alcotest.test_case "loop exit refinement" `Quick test_loop_guard_exit_refinement;
    Alcotest.test_case "per-loop unroll override" `Quick test_unroll_override;
    Alcotest.test_case "checking pass covers loop bodies" `Quick test_checking_mode_covers_loop_body;
    Alcotest.test_case "call resolution" `Quick test_call_resolution;
    Alcotest.test_case "pass reuse counters" `Quick test_pass_reuse_counters;
    Alcotest.test_case "loop-body call replay" `Quick test_call_replay;
    Alcotest.test_case "framed entries compare exactly" `Quick
      test_framed_entry_exact;
    Alcotest.test_case "reused checking pass: explain" `Quick
      test_reused_checking_pass_explain;
    Alcotest.test_case "clock widens to max_clock" `Quick
      test_clock_widens_to_max_clock;
    Alcotest.test_case "alarm chain after a call is the caller's" `Quick
      test_chain_after_call;
  ]
