(* Ellipsoid domain tests (Sect. 6.2.3): Prop. 1, the delta function,
   reduction and bound extraction, validated against concrete filter
   trajectories. *)

module F = Astree_frontend
module D = Astree_domains
module E = D.Ellipsoid

let mkvar =
  let next = ref 2000 in
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

let a_c = 1.5
let b_c = 0.7

let make3 () =
  let x = mkvar "x" and y = mkvar "y" and z = mkvar "z" in
  (x, y, z, E.make ~a:a_c ~b:b_c ~fkind:F.Ctypes.Fsingle [| x; y; z |])

let test_valid_coeffs () =
  Alcotest.(check bool) "valid" true (E.valid_coeffs ~a:1.5 ~b:0.7);
  Alcotest.(check bool) "b too big" false (E.valid_coeffs ~a:0.5 ~b:1.0);
  Alcotest.(check bool) "b negative" false (E.valid_coeffs ~a:0.5 ~b:(-0.1));
  Alcotest.(check bool) "a too big" false (E.valid_coeffs ~a:2.0 ~b:0.7);
  Alcotest.(check bool) "negative a ok" true (E.valid_coeffs ~a:(-1.5) ~b:0.7)

let test_set_find_forget () =
  let x, y, _, e = make3 () in
  Alcotest.(check bool) "top" true (E.is_top e);
  let e = E.set e x y 10.0 in
  Alcotest.(check (float 0.)) "find" 10.0 (E.find e x y);
  Alcotest.(check bool) "not top" false (E.is_top e);
  let e = E.forget e x in
  Alcotest.(check bool) "forgot" true (E.find e x y = Float.infinity)

let test_delta_monotone_and_stable () =
  let _, _, _, e = make3 () in
  let t_max = 1.0 in
  (* delta is monotone in k *)
  Alcotest.(check bool) "monotone" true
    (E.delta e ~t_max 10.0 <= E.delta e ~t_max 20.0);
  (* the self-stable bound of Prop. 1 is preserved by delta (up to the
     float inflation, absorbed by doubling the bound) *)
  let k0 = E.stable_bound e ~t_max in
  let k = 2.0 *. k0 in
  Alcotest.(check bool) "preserved" true (E.delta e ~t_max k <= k)

let test_exact_delta_value () =
  (* in exact arithmetic delta(k) ~ (sqrt(b k) + tM)^2; the implemented
     delta must dominate it but only slightly *)
  let _, _, _, e = make3 () in
  let t_max = 1.0 and k = 37.5 in
  let exact = ((sqrt (b_c *. k)) +. t_max) ** 2.0 in
  let d = E.delta e ~t_max k in
  Alcotest.(check bool) "dominates" true (d >= exact);
  Alcotest.(check bool) "tight" true (d <= exact *. 1.001)

let test_assign_filter_propagates () =
  let x, y, z, e = make3 () in
  let e = E.set e y z 10.0 in
  let e' = E.assign_filter e x y z ~t_max:1.0 in
  let k = E.find e' x y in
  Alcotest.(check bool) "finite" true (k < Float.infinity);
  Alcotest.(check bool) "delta value" true
    (k = E.delta e ~t_max:1.0 10.0)

let test_assign_copy () =
  let x, y, z, e = make3 () in
  let e = E.set e y z 5.0 in
  (* x := y renames y to x in constraints: r'(x, z) = r(y, z) *)
  let e' = E.assign_copy e x y in
  Alcotest.(check (float 0.)) "copied" 5.0 (E.find e' x z)

let test_join_meet_widen () =
  let x, y, _, e = make3 () in
  let e1 = E.set e x y 10.0 and e2 = E.set e x y 20.0 in
  Alcotest.(check (float 0.)) "join max" 20.0 (E.find (E.join e1 e2) x y);
  Alcotest.(check (float 0.)) "meet min" 10.0 (E.find (E.meet e1 e2) x y);
  (* one side unconstrained: join drops the constraint *)
  Alcotest.(check bool) "join with top" true
    (E.find (E.join e1 e) x y = Float.infinity);
  (* meet with top keeps it *)
  Alcotest.(check (float 0.)) "meet with top" 10.0 (E.find (E.meet e1 e) x y);
  let w = E.widen ~thresholds:(D.Thresholds.of_list [ 100.0 ]) e1 e2 in
  Alcotest.(check (float 0.)) "widen to threshold" 100.0 (E.find w x y)

let test_subset () =
  let x, y, _, e = make3 () in
  let e1 = E.set e x y 10.0 and e2 = E.set e x y 20.0 in
  Alcotest.(check bool) "smaller k included" true (E.subset e1 e2);
  Alcotest.(check bool) "reverse fails" false (E.subset e2 e1);
  Alcotest.(check bool) "top is greatest" true (E.subset e1 e);
  Alcotest.(check bool) "top not below" false (E.subset e e1)

let test_extract_bound () =
  let x, y, _, e = make3 () in
  let k = 100.0 in
  let e = E.set e x y k in
  match E.extract_bound e x y with
  | Some m ->
      let exact = 2.0 *. sqrt (b_c *. k /. ((4.0 *. b_c) -. (a_c *. a_c))) in
      Alcotest.(check bool) "dominates exact" true (m >= exact);
      Alcotest.(check bool) "tight" true (m <= exact *. 1.001)
  | None -> Alcotest.fail "no bound"

let test_reduce_from_intervals () =
  let x, y, _, e = make3 () in
  let oracle v =
    if v.F.Tast.v_id = x.F.Tast.v_id then (-1.0, 1.0)
    else if v.F.Tast.v_id = y.F.Tast.v_id then (-1.0, 1.0)
    else (Float.neg_infinity, Float.infinity)
  in
  let e' = E.reduce_from_intervals oracle e x y in
  let k = E.find e' x y in
  (* mx^2 + |a| mx my + b my^2 = 1 + 1.5 + 0.7 = 3.2 *)
  Alcotest.(check bool) "finite" true (k < Float.infinity);
  Alcotest.(check bool) "value" true (k >= 3.2 && k <= 3.21)

(* Soundness against concrete trajectories: the ellipse bound extracted
   after a chain of filter updates dominates simulated |X|. *)
let prop_filter_bound_sound =
  QCheck.Test.make ~name:"ellipse bound dominates simulated trajectories"
    ~count:50
    QCheck.(pair (int_range 1 1000) (float_range 0.1 1.0))
    (fun (seed, t_max) ->
      let x, y, z, e0 = make3 () in
      (* abstract: start from the interval reduction of X,Y in [-t, t],
         then apply delta until stable (with a cap) *)
      let oracle v =
        if v.F.Tast.v_id = x.F.Tast.v_id || v.F.Tast.v_id = y.F.Tast.v_id
           || v.F.Tast.v_id = z.F.Tast.v_id
        then (-.t_max, t_max)
        else (Float.neg_infinity, Float.infinity)
      in
      let e = E.reduce_from_intervals oracle e0 y z in
      let rec stabilize n e =
        if n = 0 then e
        else
          let e' = E.assign_filter e x y z ~t_max in
          (* rotate: z <- y, y <- x as in the filter body *)
          let e'' = E.assign_copy (E.assign_copy e' z y) y x in
          let k_old = E.find e y z and k_new = E.find e'' y z in
          if k_new <= k_old then e else stabilize (n - 1) (E.join e e'')
      in
      let e = stabilize 60 e in
      let k = E.find e y z in
      QCheck.assume (k < Float.infinity);
      let bound = 2.0 *. sqrt (b_c *. k /. ((4.0 *. b_c) -. (a_c *. a_c))) in
      (* simulate the filter concretely *)
      let rng = ref seed in
      let next () =
        rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
        let u = float_of_int !rng /. float_of_int 0x3FFFFFFF in
        t_max *. ((2.0 *. u) -. 1.0)
      in
      let xs = ref 0.0 and ys = ref 0.0 in
      let worst = ref 0.0 in
      for _ = 1 to 2000 do
        let t = next () in
        let x' = (a_c *. !xs) -. (b_c *. !ys) +. t in
        ys := !xs;
        xs := x';
        if Float.abs !xs > !worst then worst := Float.abs !xs
      done;
      !worst <= bound +. 1e-6)

(* [reduce_all] against the pairwise fold it replaces, bit for bit, on
   random packs, hulls (NaN, infinite, signed zero, huge), entries and
   equality answers; and it never asks [equal_vars] about a pair that
   neither candidate could tighten. *)
let prop_reduce_all_bitwise =
  let open QCheck.Gen in
  let bound =
    frequency
      [
        (1, return Float.nan);
        (1, return Float.infinity);
        (1, return Float.neg_infinity);
        (1, return 0.0);
        (1, return (-0.0));
        (1, return 1e300);
        (1, return (-1e300));
        (1, return Float.max_float);
        (6, float_range (-100.0) 100.0);
      ]
  in
  let hull =
    frequency
      [
        (1, return (Float.nan, Float.nan));
        (6, pair bound bound);
      ]
  in
  let entry =
    frequency
      [
        (3, return None);
        (1, return (Some 0.0));
        (1, return (Some 1e300));
        (4, map Option.some (float_range 0.0 1e5));
      ]
  in
  let case =
    int_range 1 5 >>= fun n ->
    quad
      (oneofl [ (1.5, 0.7); (-0.5, 0.3); (0.0, 0.9) ])
      (array_repeat n hull)
      (array_repeat (n * n) entry)
      (array_repeat (n * n) bool)
  in
  QCheck.Test.make ~name:"reduce_all = pairwise fold, bitwise" ~count:500
    (QCheck.make case) (fun ((a, b), hulls, entries, eqs) ->
      let n = Array.length hulls in
      let vars = Array.init n (fun i -> mkvar (Printf.sprintf "v%d" i)) in
      let pos (v : F.Tast.var) =
        let rec go i = if vars.(i) == v then i else go (i + 1) in
        go 0
      in
      let e0 = ref (E.make ~a ~b ~fkind:F.Ctypes.Fdouble vars) in
      Array.iteri
        (fun i -> function
          | Some k -> e0 := E.set !e0 vars.(i / n) vars.(i mod n) k
          | None -> ())
        entries;
      let e0 = !e0 in
      let oracle v = hulls.(pos v) in
      let equal_vars u w = eqs.((pos u * n) + pos w) in
      let reference =
        Array.fold_left
          (fun e u ->
            Array.fold_left
              (fun e w -> E.reduce_from_intervals ~equal_vars oracle e u w)
              e vars)
          e0 vars
      in
      let asked = ref [] in
      let spying u w =
        asked := (u, w) :: !asked;
        equal_vars u w
      in
      let fast = E.reduce_all ~equal_vars:spying oracle e0 in
      let bits e =
        E.PairMap.bindings e.E.k
        |> List.map (fun (key, k) -> (key, Int64.bits_of_float k))
      in
      (* a pair may be asked only if one candidate beats its entry *)
      let may_change u w =
        let beats eq =
          let e = E.reduce_from_intervals ~equal_vars:(fun _ _ -> eq) oracle e0 u w in
          E.find e u w < E.find e0 u w
        in
        beats true || beats false
      in
      bits fast = bits reference
      && List.for_all (fun (u, w) -> may_change u w) !asked)

let suite =
  [
    Alcotest.test_case "valid coefficients" `Quick test_valid_coeffs;
    Alcotest.test_case "set/find/forget" `Quick test_set_find_forget;
    Alcotest.test_case "delta monotone & Prop.1" `Quick test_delta_monotone_and_stable;
    Alcotest.test_case "delta close to exact" `Quick test_exact_delta_value;
    Alcotest.test_case "filter assignment" `Quick test_assign_filter_propagates;
    Alcotest.test_case "copy assignment" `Quick test_assign_copy;
    Alcotest.test_case "join/meet/widen" `Quick test_join_meet_widen;
    Alcotest.test_case "subset" `Quick test_subset;
    Alcotest.test_case "bound extraction" `Quick test_extract_bound;
    Alcotest.test_case "interval reduction" `Quick test_reduce_from_intervals;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_filter_bound_sound; prop_reduce_all_bitwise ]
