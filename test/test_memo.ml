(* Call-memo tests: sections read back exactly the bookkeeping writes
   made while they were open, in the coordinates of the call's frame. *)

module C = Astree_core
module D = Astree_domains
module F = Astree_frontend

(* [main] has two loops and two octagon packs, so its frame holds both
   loops and both packs; the frame of [f] does not hold [u], which only
   [g] writes. *)
let memo_src =
  {|
int x; int y; int z; int w; int u;
void f(void) { x = x + 1; }
void g(void) { u = 1; }
int main(void) {
  g();
  while (x < 10) { f(); y = x + 1; }
  while (z < 10) { z = z + 1; w = z + 1; }
  return 0;
}
|}

(* A section reports the bookkeeping writes made while it was open, by
   comparing the maps it took at entry with those at exit: the loop
   invariants the call left physically different from what they were
   at entry and the packs it made useful, nested sections each their
   own.  A section left by an exception keeps its alarms, its
   bookkeeping writes and its shared-cell writes in the context, and a
   later section reports only its own; a rolled-back one leaves
   nothing. *)
let test_sections () =
  let p, _ = C.Analysis.compile [ ("memo.c", memo_src) ] in
  let a = C.Transfer.make_actx C.Config.default p in
  let fr = C.Frame.of_call a.C.Transfer.frames ~fname:"main" F.Tast.VarMap.empty in
  let l1 = C.Frame.loop_at fr 0 and l2 = C.Frame.loop_at fr 1 in
  let p4 = C.Frame.oct_at fr 0 and p7 = C.Frame.oct_at fr 1 in
  let st = C.Transfer.initial_state a in
  let st' = { st with C.Astate.clock = D.Itv.int_range 0 1 } in
  let section f =
    match C.Memo.record a fr ~entry:st (fun () -> f (); (st, D.Itv.Bot)) () with
    | _, Some s -> s
    | _, None -> Alcotest.fail "a write fell outside the frame"
  in
  let loops (s : C.Transfer.summary) =
    List.map (fun (i, _) -> C.Frame.loop_at fr i) s.C.Transfer.sm_invariants
  in
  let packs (s : C.Transfer.summary) =
    List.map (C.Frame.oct_at fr) s.C.Transfer.sm_oct_useful
  in
  C.Transfer.set_invariant a l1 st;
  C.Transfer.mark_useful a p4;
  let inner = ref None in
  let outer =
    section (fun () ->
        C.Transfer.set_invariant a l1 st';
        C.Transfer.set_invariant a l2 st;
        inner :=
          Some
            (section (fun () ->
                 C.Transfer.set_invariant a l2 st;
                 C.Transfer.mark_useful a p4;
                 C.Transfer.mark_useful a p7));
        C.Transfer.set_invariant a l1 st)
  in
  let inner = Option.get !inner in
  Alcotest.(check (list int)) "inner: invariant rewritten, same state" [] (loops inner);
  Alcotest.(check (list int)) "inner: useful packs" [ p7 ] (packs inner);
  Alcotest.(check (list int)) "outer: back to its entry value, new loop" [ l2 ]
    (loops outer);
  Alcotest.(check (list int)) "outer: useful packs" [ p7 ] (packs outer);
  Alcotest.(check (list int)) "a later section" [ l1 ]
    (loops (section (fun () -> C.Transfer.set_invariant a l1 st')));
  (* the abort path *)
  C.Transfer.itf_record a (0, []) (D.Itv.int_range 0 1);
  a.C.Transfer.alarms.C.Alarm.enabled <- true;
  C.Alarm.report a.C.Transfer.alarms C.Alarm.Assert_failure
    (F.Loc.make ~file:"memo.c" ~line:1 ~col:1) "before";
  let alarms0 = C.Alarm.count a.C.Transfer.alarms in
  (match
     C.Memo.record a fr ~entry:st
       (fun () ->
         C.Transfer.set_invariant a l2 st';
         C.Transfer.mark_useful a p7;
         C.Transfer.itf_record a (0, []) (D.Itv.int_range 5 6);
         C.Transfer.itf_record a (1, []) (D.Itv.int_range 2 3);
         C.Alarm.report a.C.Transfer.alarms C.Alarm.Assert_failure
           F.Loc.dummy "aborted";
         raise Exit)
       ()
   with
  | _ -> Alcotest.fail "the section returned"
  | exception Exit -> ());
  Alcotest.(check int) "abort: alarms absorbed" (alarms0 + 1)
    (C.Alarm.count a.C.Transfer.alarms);
  Alcotest.(check (list int)) "abort: bookkeeping writes kept" [ p4; p7 ]
    (C.Ptmap.bindings a.C.Transfer.oct_useful |> List.map fst |> List.sort compare);
  Alcotest.(check (list string)) "abort: shared writes joined back"
    [ "0: [0, 6]"; "1: [2, 3]" ]
    (C.Transfer.Itf_map.fold
       (fun (root, _) v acc -> Fmt.str "%d: %a" root D.Itv.pp v :: acc)
       a.C.Transfer.guarantee []
    |> List.sort compare);
  let after =
    section (fun () ->
        C.Transfer.mark_useful a p7;
        C.Transfer.set_invariant a l1 st)
  in
  Alcotest.(check (list int)) "after an abort: own invariant only" [ l1 ]
    (loops after);
  Alcotest.(check (list int)) "after an abort: no useful pack" [] (packs after);
  (* a rollback drops a section's effects and restores the alarm mode *)
  let inv0 = a.C.Transfer.invariants and g0 = a.C.Transfer.guarantee in
  let alarms0 = C.Alarm.count a.C.Transfer.alarms in
  let s = C.Transfer.open_section a in
  C.Transfer.set_invariant a l2 st;
  C.Transfer.itf_record a (2, []) (D.Itv.int_range 7 7);
  C.Alarm.report a.C.Transfer.alarms C.Alarm.Assert_failure
    (F.Loc.make ~file:"memo.c" ~line:2 ~col:1) "rolled back";
  a.C.Transfer.alarms.C.Alarm.enabled <- false;
  C.Transfer.rollback a s;
  Alcotest.(check bool) "rollback: invariants and guarantee" true
    (a.C.Transfer.invariants == inv0 && a.C.Transfer.guarantee == g0);
  Alcotest.(check int) "rollback: alarms" alarms0
    (C.Alarm.count a.C.Transfer.alarms);
  Alcotest.(check bool) "rollback: alarm mode" true
    a.C.Transfer.alarms.C.Alarm.enabled

(* A call that changes a cell outside its frame has no summary, so it
   is never replayed: its every call is computed.  The same call
   writing inside its frame is replayed from its slot from its third
   call on (the first one only sets the site's clock). *)
let test_write_outside_frame () =
  let p, _ = C.Analysis.compile [ ("memo.c", memo_src) ] in
  let a = C.Transfer.make_actx C.Config.default p in
  let fr = C.Frame.of_call a.C.Transfer.frames ~fname:"f" F.Tast.VarMap.empty in
  let cell name =
    C.Transfer.var_cell a
      (fst
         (List.find
            (fun ((v : F.Tast.var), _) -> v.F.Tast.v_name = name)
            p.F.Tast.p_globals))
  in
  Alcotest.(check bool) "x in the frame" true (C.Frame.cell_pos fr (cell "x") <> None);
  Alcotest.(check bool) "u outside the frame" true
    (C.Frame.cell_pos fr (cell "u") = None);
  let st = C.Transfer.initial_state a in
  let write name =
    ( {
        st with
        C.Astate.env =
          C.Env.set st.C.Astate.env (cell name)
            (C.Avalue.of_itv ~use_clocked:false ~clock:st.C.Astate.clock
               (D.Itv.int_range 5 5));
      },
      D.Itv.Bot )
  in
  let summary name =
    snd (C.Memo.record a fr ~entry:st (fun () -> write name) ())
  in
  Alcotest.(check bool) "inside: a summary" true (summary "x" <> None);
  Alcotest.(check bool) "outside: no summary" true (summary "u" = None);
  let site = { F.Tast.sdesc = F.Tast.Scall (None, "f", []); sloc = F.Loc.dummy } in
  let computed name =
    let sites = C.Memo.loop_sites () and n = ref 0 in
    for _ = 1 to 4 do
      ignore
        (C.Memo.call a sites ~site ~fname:"f" F.Tast.VarMap.empty st (fun _ ->
             incr n;
             write name))
    done;
    !n
  in
  Alcotest.(check int) "inside: computed twice of four" 2 (computed "x");
  Alcotest.(check int) "outside: computed every time" 4 (computed "u")

let suite =
  [
    Alcotest.test_case "sections" `Quick test_sections;
    Alcotest.test_case "write outside the frame" `Quick test_write_outside_frame;
  ]
