(* Patricia-tree environments (Sect. 6.1.2): model-based property tests
   against Stdlib.Map, plus sharing/short-cut checks. *)

module P = Astree_core.Ptmap
module M = Map.Make (Int)

let gen_ops : (int * int) list QCheck.Gen.t =
  QCheck.Gen.(list_size (int_range 0 60) (pair (int_range 0 200) small_nat))

let arb_ops =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (k, v) -> Fmt.str "%d->%d" k v) l))
    gen_ops

let build_both ops =
  List.fold_left
    (fun (p, m) (k, v) -> (P.add k v p, M.add k v m))
    (P.empty, M.empty) ops

let prop_model_find =
  QCheck.Test.make ~name:"add/find agrees with Map" arb_ops (fun ops ->
      let p, m = build_both ops in
      M.for_all (fun k v -> P.find_opt k p = Some v) m
      && P.for_all (fun k v -> M.find_opt k m = Some v) p)

let prop_model_remove =
  QCheck.Test.make ~name:"remove agrees with Map"
    (QCheck.pair arb_ops (QCheck.int_range 0 200))
    (fun (ops, k) ->
      let p, m = build_both ops in
      let p = P.remove k p and m = M.remove k m in
      P.find_opt k p = None
      && M.for_all (fun k v -> P.find_opt k p = Some v) m
      && P.cardinal p = M.cardinal m)

let prop_union_model =
  QCheck.Test.make ~name:"union_idem agrees with Map.union"
    (QCheck.pair arb_ops arb_ops)
    (fun (o1, o2) ->
      let p1, m1 = build_both o1 and p2, m2 = build_both o2 in
      let pu = P.union_idem (fun _ a b -> max a b) p1 p2 in
      let mu = M.union (fun _ a b -> Some (max a b)) m1 m2 in
      M.for_all (fun k v -> P.find_opt k pu = Some v) mu
      && P.cardinal pu = M.cardinal mu)

let prop_inter_model =
  QCheck.Test.make ~name:"inter_keys agrees with Map intersection"
    (QCheck.pair arb_ops arb_ops)
    (fun (o1, o2) ->
      let p1, m1 = build_both o1 and p2, m2 = build_both o2 in
      let pi = P.inter_keys (fun _ a b -> Some (min a b)) p1 p2 in
      let mi =
        M.merge
          (fun _ a b ->
            match (a, b) with Some a, Some b -> Some (min a b) | _ -> None)
          m1 m2
      in
      M.for_all (fun k v -> P.find_opt k pi = Some v) mi
      && P.cardinal pi = M.cardinal mi)

let prop_subset =
  QCheck.Test.make ~name:"subset_by matches pointwise definition"
    (QCheck.pair arb_ops arb_ops)
    (fun (o1, o2) ->
      let p1, m1 = build_both o1 and p2, m2 = build_both o2 in
      let expected =
        M.for_all
          (fun k v2 ->
            match M.find_opt k m1 with Some v1 -> v1 <= v2 | None -> false)
          m2
      in
      P.subset_by ( <= ) p1 p2 = expected)

let test_sharing_shortcut () =
  (* union of a map with itself must return it physically *)
  let p = List.fold_left (fun p k -> P.add k k p) P.empty [ 1; 5; 9; 42; 77 ] in
  let u = P.union_idem (fun _ a _ -> a) p p in
  Alcotest.(check bool) "physical identity" true (u == p);
  (* union with a one-cell change shares the unchanged subtrees *)
  let p' = P.add 5 99 p in
  let u = P.union_idem (fun _ a b -> max a b) p p' in
  Alcotest.(check (option int)) "updated" (Some 99) (P.find_opt 5 u);
  Alcotest.(check (option int)) "kept" (Some 42) (P.find_opt 42 u)

let test_add_physical_noop () =
  let p = P.add 3 7 (P.add 1 2 P.empty) in
  let v = Option.get (P.find_opt 3 p) in
  ignore v;
  (* re-adding the physically same value returns the same tree *)
  let q = P.add 3 7 p in
  Alcotest.(check bool) "no-op add" true (P.equal_by ( = ) p q)

let test_bindings_complete () =
  let p = build_both [ (3, 1); (1, 2); (8, 3) ] |> fst in
  Alcotest.(check int) "cardinal" 3 (P.cardinal p);
  Alcotest.(check int) "fold" 3 (P.fold (fun _ _ n -> n + 1) p 0)

let test_filter_map () =
  let p = build_both [ (1, 1); (2, 2); (3, 3); (4, 4) ] |> fst in
  let q = P.filter_map (fun _ v -> if v mod 2 = 0 then Some (v * 10) else None) p in
  Alcotest.(check int) "card" 2 (P.cardinal q);
  Alcotest.(check (option int)) "kept" (Some 20) (P.find_opt 2 q);
  Alcotest.(check (option int)) "dropped" None (P.find_opt 1 q)

let suite =
  [
    Alcotest.test_case "sharing short-cut" `Quick test_sharing_shortcut;
    Alcotest.test_case "physical no-op add" `Quick test_add_physical_noop;
    Alcotest.test_case "bindings" `Quick test_bindings_complete;
    Alcotest.test_case "filter_map" `Quick test_filter_map;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_model_find; prop_model_remove; prop_union_model;
        prop_inter_model; prop_subset;
      ]
