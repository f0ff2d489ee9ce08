(* Environment representation tests (Sect. 6.1.2): model-based agreement
   between the sharable functional maps and the naive arrays, plus
   lattice properties at the Avalue level. *)

module C = Astree_core
module D = Astree_domains

let clock0 = D.Itv.int_const 0

let av_of_range lo hi =
  C.Avalue.of_itv ~use_clocked:false ~clock:clock0 (D.Itv.int_range lo hi)

let gen_env_ops : (int * (int * int)) list QCheck.Gen.t =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (pair (int_range 0 100)
         (pair (int_range (-50) 50) (int_range 0 50))))

let arb_ops =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (k, (lo, w)) -> Fmt.str "%d->[%d,%d]" k lo (lo + w)) l))
    gen_env_ops

let build naive ops =
  List.fold_left
    (fun e (k, (lo, w)) -> C.Env.set e k (av_of_range lo (lo + w)))
    (C.Env.empty ~naive ~ncells:128)
    ops

let same_bindings a b =
  let collect e = C.Env.fold (fun k v acc -> (k, v) :: acc) e [] in
  let la = List.sort compare (List.map (fun (k, v) -> (k, C.Avalue.itv v)) (collect a)) in
  let lb = List.sort compare (List.map (fun (k, v) -> (k, C.Avalue.itv v)) (collect b)) in
  la = lb

let prop_representations_agree op_name op =
  QCheck.Test.make ~name:(op_name ^ ": shared and naive agree")
    (QCheck.pair arb_ops arb_ops)
    (fun (o1, o2) ->
      let s = op (build false o1) (build false o2) in
      let n = op (build true o1) (build true o2) in
      same_bindings s n)

let prop_join_agree = prop_representations_agree "join" C.Env.join
let prop_meet_agree = prop_representations_agree "meet" C.Env.meet

let prop_widen_agree =
  prop_representations_agree "widen"
    (C.Env.widen ~thresholds:D.Thresholds.default)

let prop_subset_agree =
  QCheck.Test.make ~name:"subset: shared and naive agree"
    (QCheck.pair arb_ops arb_ops)
    (fun (o1, o2) ->
      C.Env.subset (build false o1) (build false o2)
      = C.Env.subset (build true o1) (build true o2))

let prop_join_upper_bound =
  (* sides must range over the same cells: one-sided bindings model
     out-of-scope locals and are kept as-is by the join (see Env) *)
  QCheck.Test.make ~name:"join is an upper bound (same key set)"
    (QCheck.pair arb_ops arb_ops)
    (fun (o1, o2) ->
      let keys = List.map fst (o1 @ o2) in
      let pad ops =
        ops @ List.map (fun k -> (k, (0, 0))) keys
        (* later bindings win in [build], so pad FIRST *)
      in
      let a = build false (List.rev (pad o1))
      and b = build false (List.rev (pad o2)) in
      let j = C.Env.join a b in
      C.Env.subset a j && C.Env.subset b j)

let prop_join_idempotent =
  QCheck.Test.make ~name:"join with self is physically cheap and equal"
    arb_ops
    (fun ops ->
      let a = build false ops in
      C.Env.equal (C.Env.join a a) a)

let test_map_all_tick () =
  let e = C.Env.set (C.Env.empty ~naive:false ~ncells:4) 0
      (C.Avalue.of_itv ~use_clocked:true ~clock:clock0 (D.Itv.int_range 0 5))
  in
  let e' = C.Env.map_all C.Avalue.tick e in
  match C.Env.find e' 0 with
  | Some av ->
      Alcotest.(check bool) "vminus shifted" true
        (D.Itv.equal av.D.Clocked.vminus (D.Itv.int_range (-1) 4))
  | None -> Alcotest.fail "cell lost"

(* [diff] lists the cells written since [base], new cells included,
   whichever the representation; a write of the value already there is
   no difference. *)
let test_set_find_diff () =
  List.iter
    (fun naive ->
      let e = C.Env.empty ~naive ~ncells:4 in
      let e = C.Env.set e 42 (av_of_range 1 2) in
      Alcotest.(check bool) "found" true (C.Env.find e 42 <> None);
      Alcotest.(check int) "card" 1 (C.Env.cardinal e);
      let base = C.Env.set e 7 (av_of_range 0 0) in
      let v3 = av_of_range 3 3 in
      let e = C.Env.set (C.Env.set base 42 v3) 99 v3 in
      let e = C.Env.set e 7 (Option.get (C.Env.find base 7)) in
      Alcotest.(check (list int)) "diff" [ 42; 99 ]
        (List.sort compare (List.map fst (C.Env.diff ~base e)));
      Alcotest.(check int) "no diff" 0 (List.length (C.Env.diff ~base base)))
    [ false; true ]

(* The interner finds a scalar variable's cell through its array and
   every other cell through its table; both must hand out the same ids
   whatever the interning order, and ids past the array still work. *)
let test_interner_lookup () =
  let module F = Astree_frontend in
  let var id ty =
    {
      F.Tast.v_id = id;
      v_name = Fmt.str "v%d" id;
      v_orig = Fmt.str "v%d" id;
      v_ty = ty;
      v_kind = F.Tast.Kglobal;
      v_volatile = false;
      v_loc = F.Loc.dummy;
    }
  in
  let int_s = F.Ctypes.Tint (F.Ctypes.Int, F.Ctypes.Signed) in
  let cell root path = { C.Cell.root; path; cty = int_s; weak = false } in
  let x = var 3 F.Ctypes.t_int and s = var 5 F.Ctypes.t_int
  and far = var 40 F.Ctypes.t_int in
  let it = C.Cell.make_interner ~vars:8 in
  let field = cell s [ C.Cell.Sfield "a" ] in
  let elem = cell s [ C.Cell.Selem 2 ] in
  let id_x = C.Cell.intern it (cell x []) in
  let id_field = C.Cell.intern it field in
  let id_elem = C.Cell.intern it elem in
  let id_far = C.Cell.intern it (cell far []) in
  let id_s = C.Cell.intern it (cell s []) in
  let check = Alcotest.(check (option int)) in
  Alcotest.(check int) "x again" id_x (C.Cell.intern it (cell x []));
  Alcotest.(check int) "field again" id_field (C.Cell.intern it field);
  Alcotest.(check int) "far again" id_far (C.Cell.intern it (cell far []));
  check "find x" (Some id_x) (C.Cell.find it 3 []);
  check "find s" (Some id_s) (C.Cell.find it 5 []);
  check "find field" (Some id_field) (C.Cell.find it 5 [ C.Cell.Sfield "a" ]);
  check "find elem" (Some id_elem) (C.Cell.find it 5 [ C.Cell.Selem 2 ]);
  check "find far" (Some id_far) (C.Cell.find it 40 []);
  check "absent scalar" None (C.Cell.find it 4 []);
  check "absent field" None (C.Cell.find it 3 [ C.Cell.Sfield "a" ]);
  Alcotest.(check int) "lookup field" id_field (C.Cell.lookup it field);
  Alcotest.check_raises "lookup of a cell never interned"
    (Invalid_argument "Cell.lookup: no cell v4") (fun () ->
      ignore (C.Cell.lookup it (cell (var 4 F.Ctypes.t_int) [])));
  Alcotest.(check (list int)) "dense ids in order" [ 0; 1; 2; 3; 4 ]
    [ id_x; id_field; id_elem; id_far; id_s ];
  Alcotest.(check int) "count" 5 (C.Cell.count it);
  Alcotest.(check bool) "of_id" true
    (C.Cell.equal (C.Cell.of_id it id_field) field)

let suite =
  [
    Alcotest.test_case "map_all / tick" `Quick test_map_all_tick;
    Alcotest.test_case "set/find/diff" `Quick test_set_find_diff;
    Alcotest.test_case "interner lookups" `Quick test_interner_lookup;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_join_agree; prop_meet_agree; prop_widen_agree;
        prop_subset_agree; prop_join_upper_bound; prop_join_idempotent;
      ]
