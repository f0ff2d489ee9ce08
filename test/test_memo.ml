(* Call-memo tests: sections read back exactly the bookkeeping writes
   made while they were open, in the coordinates of the call's frame. *)

module C = Astree_core
module D = Astree_domains
module F = Astree_frontend

(* [main] has two loops and two octagon packs, so its frame holds both
   loops and both packs. *)
let memo_src =
  {|
int x; int y; int z; int w;
int main(void) {
  while (x < 10) { x = x + 1; y = x + 1; }
  while (z < 10) { z = z + 1; w = z + 1; }
  return 0;
}
|}

(* A section reads the bookkeeping writes made while it was open back
   from the journal: the loop invariants the call left physically
   different from what they were at entry, the packs it made useful,
   nested sections each their own, and nothing once the last one
   closes.  A section left by an exception keeps its alarms and its
   shared-cell writes in the context and leaves no section open. *)
let test_capture_journal () =
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
  Alcotest.(check int) "journal emptied" 0 a.C.Transfer.journal_len;
  Alcotest.(check (list int)) "a later section" [ l1 ]
    (loops (section (fun () -> C.Transfer.set_invariant a l1 st')));
  (* the abort path *)
  let it =
    {
      C.Transfer.itf_rely = Hashtbl.create 1;
      itf_shared = Hashtbl.create 1;
      itf_writes = Hashtbl.create 1;
    }
  in
  a.C.Transfer.session.C.Transfer.ses_itf <- Some it;
  C.Transfer.itf_record it (0, []) (D.Itv.int_range 0 1);
  a.C.Transfer.alarms.C.Alarm.enabled <- true;
  C.Alarm.report a.C.Transfer.alarms C.Alarm.Assert_failure
    (F.Loc.make ~file:"memo.c" ~line:1 ~col:1) "before";
  let alarms0 = C.Alarm.count a.C.Transfer.alarms in
  (match
     C.Memo.record a fr ~entry:st
       (fun () ->
         C.Transfer.set_invariant a l2 st';
         C.Transfer.mark_useful a p7;
         C.Transfer.itf_record it (0, []) (D.Itv.int_range 5 6);
         C.Transfer.itf_record it (1, []) (D.Itv.int_range 2 3);
         C.Alarm.report a.C.Transfer.alarms C.Alarm.Assert_failure
           F.Loc.dummy "aborted";
         raise Exit)
       ()
   with
  | _ -> Alcotest.fail "the section returned"
  | exception Exit -> ());
  Alcotest.(check int) "abort: alarms absorbed" (alarms0 + 1)
    (C.Alarm.count a.C.Transfer.alarms);
  Alcotest.(check int) "abort: no section open" 0 a.C.Transfer.sections;
  Alcotest.(check int) "abort: journal emptied" 0 a.C.Transfer.journal_len;
  Alcotest.(check (list string)) "abort: shared writes joined back"
    [ "0: [0, 6]"; "1: [2, 3]" ]
    (Hashtbl.fold
       (fun (root, _) v acc -> Fmt.str "%d: %a" root D.Itv.pp v :: acc)
       it.C.Transfer.itf_writes []
    |> List.sort compare)

let suite =
  [ Alcotest.test_case "capture journal" `Quick test_capture_journal ]
