(* Linear forms and linearization tests (Sect. 6.3). *)

module F = Astree_frontend
module D = Astree_domains
module LF = D.Linear_form

let mkvar =
  let next = ref 4000 in
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

let test_exact_coefficients () =
  let x = mkvar "x" and y = mkvar "y" in
  (* x + y - x has coefficient exactly 1 on y and none on x *)
  let f = LF.(sub (add (of_var x) (of_var y)) (of_var x)) in
  match LF.as_single_var f with
  | Some (v, k, c) ->
      Alcotest.(check bool) "var" true (F.Tast.Var.equal v y);
      Alcotest.(check (float 0.)) "coeff lo" 1.0 k.LF.lo;
      Alcotest.(check (float 0.)) "coeff hi" 1.0 k.LF.hi;
      Alcotest.(check (float 0.)) "const" 0.0 c.LF.lo
  | None -> Alcotest.fail "not single var"

let test_scale () =
  let x = mkvar "x" in
  let f = LF.scale (LF.coeff_const 0.5) (LF.of_var x) in
  let lo, hi = LF.eval (fun _ -> (0.0, 10.0)) f in
  Alcotest.(check bool) "range" true (lo <= 0.0 && hi >= 5.0 && hi <= 5.0001)

let test_eval_paper_example () =
  (* l[X - 0.2*X] = 0.8*X evaluates to [0, 0.8] for X in [0,1] *)
  let x = mkvar "x" in
  let f = LF.(sub (of_var x) (scale (coeff_const 0.2) (of_var x))) in
  let lo, hi = LF.eval (fun _ -> (0.0, 1.0)) f in
  Alcotest.(check bool) "lower" true (lo >= -0.0001 && lo <= 0.0);
  Alcotest.(check bool) "upper" true (hi >= 0.8 && hi <= 0.8001)

let test_div_const () =
  let x = mkvar "x" in
  let f = LF.of_var x in
  (match LF.div_const f { LF.lo = 2.0; hi = 2.0 } with
  | Some f' ->
      let lo, hi = LF.eval (fun _ -> (0.0, 10.0)) f' in
      Alcotest.(check bool) "halved" true (lo <= 0.0 && hi >= 5.0 && hi <= 5.001)
  | None -> Alcotest.fail "div failed");
  Alcotest.(check bool) "div by zero-crossing fails" true
    (LF.div_const f { LF.lo = -1.0; hi = 1.0 } = None)

let test_rounding_error_term () =
  let x = mkvar "x" in
  let f = LF.add_rounding_error F.Ctypes.Fsingle 100.0 (LF.of_var x) in
  let lo, hi = LF.eval (fun _ -> (1.0, 1.0)) f in
  (* error ~ 100 * 2^-24 ~ 6e-6 *)
  Alcotest.(check bool) "enlarged" true (hi > 1.0 && hi < 1.0001);
  Alcotest.(check bool) "symmetric" true (lo < 1.0 && lo > 0.9999)

(* linearization of typed expressions *)
let mk_expr ety edesc = { F.Tast.edesc; ety; eloc = F.Loc.dummy }
let fs = F.Ctypes.Tfloat F.Ctypes.Fsingle

let var_e (v : F.Tast.var) =
  mk_expr fs
    (F.Tast.Elval { F.Tast.ldesc = F.Tast.Lvar v; lty = v.F.Tast.v_ty; lloc = F.Loc.dummy })

let test_linearize_paper_example () =
  (* X - 0.2f * X refines [-0.2, 1] to about [0, 0.8] *)
  let x = mkvar "x" in
  let e =
    mk_expr fs
      (F.Tast.Ebinop
         ( F.Tast.Sub,
           var_e x,
           mk_expr fs
             (F.Tast.Ebinop
                (F.Tast.Mul, mk_expr fs (F.Tast.Efloat 0.2), var_e x)) ))
  in
  let oracle _ = (0.0, 1.0) in
  let plain = D.Itv.float_range (-0.2) 1.0 in
  match D.Linearize.refine_eval oracle e plain with
  | D.Itv.Float (lo, hi) ->
      Alcotest.(check bool) "refined hi" true (hi <= 0.801);
      Alcotest.(check bool) "refined lo" true (lo >= -0.001)
  | i -> Alcotest.failf "unexpected %a" D.Itv.pp i

let test_linearize_nonlinear_gives_up () =
  let x = mkvar "x" in
  let e = mk_expr fs (F.Tast.Ebinop (F.Tast.Mul, var_e x, var_e x)) in
  Alcotest.(check bool) "x*x intervalizes one side" true
    (D.Linearize.linearize (fun _ -> (0.0, 2.0)) e <> None);
  let e' = mk_expr fs (F.Tast.Eunop (F.Tast.Sqrt, var_e x)) in
  Alcotest.(check bool) "sqrt gives up" true
    (D.Linearize.linearize (fun _ -> (0.0, 2.0)) e' = None)

let prop_linearize_sound =
  (* the linear form's interval always contains the concrete value *)
  QCheck.Test.make ~name:"linearization over-approximates concrete eval"
    ~count:200
    QCheck.(
      quad (float_range (-10.) 10.) (float_range (-10.) 10.)
        (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (xv, yv, c1, c2) ->
      let x = mkvar "x" and y = mkvar "y" in
      (* e = c1*x + (y - c2) computed in single precision *)
      let e =
        mk_expr fs
          (F.Tast.Ebinop
             ( F.Tast.Add,
               mk_expr fs
                 (F.Tast.Ebinop
                    (F.Tast.Mul, mk_expr fs (F.Tast.Efloat c1), var_e x)),
               mk_expr fs
                 (F.Tast.Ebinop
                    (F.Tast.Sub, var_e y, mk_expr fs (F.Tast.Efloat c2))) ))
      in
      let oracle v = if v.F.Tast.v_name = "x" then (xv, xv) else (yv, yv) in
      match D.Linearize.linearize oracle e with
      | None -> false
      | Some form ->
          let lo, hi = LF.eval oracle form in
          (* concrete single-precision evaluation *)
          let r32 f = Int32.float_of_bits (Int32.bits_of_float f) in
          let concrete = r32 (r32 (c1 *. xv) +. r32 (yv -. c2)) in
          lo <= concrete && concrete <= hi)

(* [coeff_mul] and [eval] as they were with Stdlib's polymorphic
   [min]/[max], four products per direction and a tuple per term: the
   typed comparisons, the point shortcut and the unboxed accumulator must
   give the same bits on any bounds, NaN, signed zeros and infinities
   included. *)
module Ref_lf = struct
  module U = D.Float_utils

  let coeff_mul (a : LF.coeff) (b : LF.coeff) : LF.coeff =
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
        (U.add_down lo p.lo, U.add_up hi p.hi))
      a.terms (a.const.lo, a.const.hi)
end

let bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

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

(* unordered bounds, a point now and then *)
let gen_edge_coeff : LF.coeff QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun lo hi -> { LF.lo; hi }) gen_edge_bound gen_edge_bound);
        (1, map LF.coeff_const gen_edge_bound);
      ])

let edge_vars = Array.init 4 (fun i -> mkvar (Printf.sprintf "e%d" i))

let print_coeff (c : LF.coeff) = Printf.sprintf "[%h,%h]" c.lo c.hi

let prop_coeff_mul_bitwise =
  QCheck.Test.make ~count:2000
    ~name:"coeff_mul = reference bitwise"
    (QCheck.make
       ~print:(fun (a, b) -> print_coeff a ^ " * " ^ print_coeff b)
       QCheck.Gen.(pair gen_edge_coeff gen_edge_coeff))
    (fun (a, b) ->
      let r = LF.coeff_mul a b and e = Ref_lf.coeff_mul a b in
      bits r.lo e.lo && bits r.hi e.hi)

let prop_eval_bitwise =
  QCheck.Test.make ~count:2000 ~name:"eval matches reference bitwise"
    (QCheck.make
       ~print:(fun (terms, c, hulls) ->
         String.concat " + "
           (List.map (fun (i, k) -> print_coeff k ^ "*e" ^ string_of_int i) terms)
         ^ " + " ^ print_coeff c ^ " | "
         ^ String.concat " " (Array.to_list (Array.map print_coeff hulls)))
       QCheck.Gen.(
         triple
           (list_size (int_bound 4) (pair (int_bound 3) gen_edge_coeff))
           gen_edge_coeff
           (array_repeat 4 gen_edge_coeff)))
    (fun (terms, const, hulls) ->
      let form =
        {
          LF.terms =
            List.fold_left
              (fun m (i, k) -> LF.VarMap.add edge_vars.(i) k m)
              LF.VarMap.empty terms;
          const;
        }
      in
      let oracle (v : F.Tast.var) =
        let h = hulls.(v.F.Tast.v_id - edge_vars.(0).F.Tast.v_id) in
        (h.LF.lo, h.LF.hi)
      in
      let lo, hi = LF.eval oracle form and elo, ehi = Ref_lf.eval oracle form in
      bits lo elo && bits hi ehi)

let suite =
  [
    Alcotest.test_case "exact coefficients" `Quick test_exact_coefficients;
    Alcotest.test_case "scale" `Quick test_scale;
    Alcotest.test_case "paper example form" `Quick test_eval_paper_example;
    Alcotest.test_case "division by constant" `Quick test_div_const;
    Alcotest.test_case "rounding error term" `Quick test_rounding_error_term;
    Alcotest.test_case "linearize paper example" `Quick test_linearize_paper_example;
    Alcotest.test_case "non-linear handling" `Quick test_linearize_nonlinear_gives_up;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_linearize_sound; prop_coeff_mul_bitwise; prop_eval_bitwise ]
