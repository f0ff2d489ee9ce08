(* Self-tests of the benchmark's OCaml helpers: plan determinism and the
   span self-time computation.  Run by [dune runtest]; the Python side
   (percentiles, a smoke pass through every workload) is tested by
   [python3 perfbench/run.py --selftest]. *)

let check name cond =
  if not cond then begin
    Printf.eprintf "selftest: FAILED %s\n" name;
    exit 1
  end

let close a b = Float.abs (a -. b) < 1e-9

let plan_determinism () =
  List.iter
    (fun workload ->
      let mk seed = Plan.make ~workload ~seed ~requests:24 in
      let a = mk 7 and b = mk 7 and c = mk 8 in
      let bytes p =
        Plan.manifest p
        :: List.map (fun i -> i.Plan.file ^ "\000" ^ i.Plan.source) (Plan.inputs p)
      in
      check (workload ^ ": same seed, same bytes") (bytes a = bytes b);
      check (workload ^ ": another seed, another plan") (bytes a <> bytes c);
      check
        (workload ^ ": count-bounded")
        (List.length a.Plan.requests = 24))
    Plan.workloads

let edits () =
  let src = Plan.cascade ~stages:3 ~width:4 in
  check "cascade has 3 stage bodies" (List.length (Plan.stage_bodies src) = 3);
  let e1 = Plan.edit ~stage:1 ~tag:5 src and e2 = Plan.edit ~stage:1 ~tag:6 src in
  check "edit changes the source" (e1 <> src && e1 <> e2);
  check "edit only inserts"
    (String.length e1 > String.length src
    && String.sub e1 0 100 = String.sub src 0 100)

let span ~id ~parent name t0 t1 =
  { Spans.id; parent; rid = 0; name; t0; t1 }

let self_times () =
  (* root [0,10] with children [1,3] and [2,5] (overlapping: union 4)
     and [9,12] (clipped to 1); grandchild [1,2] under the first child *)
  let spans =
    [
      span ~id:0 ~parent:(-1) "root" 0. 10.;
      span ~id:1 ~parent:0 "a" 1. 3.;
      span ~id:2 ~parent:0 "b" 2. 5.;
      span ~id:3 ~parent:0 "c" 9. 12.;
      span ~id:4 ~parent:1 "a.x" 1. 2.;
    ]
  in
  let self = Spans.self_times spans in
  let of_id i = snd (List.find (fun (s, _) -> s.Spans.id = i) self) in
  check "root self" (close (of_id 0) 5.);
  check "child minus grandchild" (close (of_id 1) 1.);
  check "leaf self = duration" (close (of_id 2) 3.);
  check "self by name"
    (Spans.self_by_name spans
    = [ ("a", of_id 1); ("a.x", 1.); ("b", 3.); ("c", 3.); ("root", 5.) ])

let recorder () =
  Spans.reset ();
  Spans.enabled := true;
  let v =
    Spans.within ~rid:1 "outer" (fun () ->
        Spans.within ~rid:1 "inner" (fun () -> 41) + 1)
  in
  (try Spans.within ~rid:2 "raises" (fun () -> failwith "x") with Failure _ -> ());
  Spans.enabled := false;
  ignore (Spans.within ~rid:3 "off" (fun () -> ()));
  match Spans.all () with
  | [ inner; outer; raised ] ->
      check "value passes through" (v = 42);
      check "nesting" (inner.Spans.parent = outer.Spans.id && outer.Spans.parent = -1);
      check "raising span recorded" (raised.Spans.name = "raises");
      check "jsonl one line per span"
        (List.length
           (String.split_on_char '\n' (String.trim (Spans.to_jsonl (Spans.all ()))))
        = 3)
  | l -> check (Printf.sprintf "3 spans recorded, got %d" (List.length l)) false

let () =
  plan_determinism ();
  edits ();
  self_times ();
  recorder ();
  print_endline "perfbench selftest: ok"
