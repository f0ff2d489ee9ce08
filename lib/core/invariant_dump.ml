(** Textual dump of loop invariants (Sect. 5.3: "the loop invariants which
    are generated by the analyzer can be saved for examination";
    Sect. 9.4.1: "we have dumped the main loop invariant (a textual file
    over 4.5 Mb)").

    The dump lists, per loop, every assertion of the invariant in the
    order of the paper's census: boolean and numerical intervals, clock
    assertions, octagonal constraints, ellipsoidal constraints and
    decision trees. *)

module D = Astree_domains

let dump_state (a : Transfer.actx) ppf (st : Astate.t) : unit =
  if Astate.is_bot st then Fmt.pf ppf "unreachable@."
  else begin
    (* interval and clock assertions, cell by cell: ids are in program
       order ({!Transfer.prepared}) *)
    let cells =
      Env.fold (fun id av acc -> (id, av) :: acc) st.Astate.env []
      |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
    in
    List.iter
      (fun (id, (av : Avalue.t)) ->
        let c = Cell.of_id a.Transfer.intern id in
        let i = Avalue.itv av in
        (match i with
        | D.Itv.Bot -> Fmt.pf ppf "%a : unreachable@." Cell.pp c
        | i -> Fmt.pf ppf "%a in %a@." Cell.pp c D.Itv.pp i);
        if not (D.Itv.is_bot av.D.Clocked.vminus) then
          Fmt.pf ppf "%a - clock in %a@." Cell.pp c D.Itv.pp
            av.D.Clocked.vminus;
        if not (D.Itv.is_bot av.D.Clocked.vplus) then
          Fmt.pf ppf "%a + clock in %a@." Cell.pp c D.Itv.pp av.D.Clocked.vplus)
      cells;
    Fmt.pf ppf "clock in %a@." D.Itv.pp st.Astate.clock;
    (* relational assertions: octagons, ellipsoids, decision trees *)
    Relstate.pp ppf st.Astate.rel
  end

(** Dump every recorded loop invariant to a string. *)
let to_string (r : Analysis.result) : string =
  let buf = Buffer.create 65536 in
  let ppf = Fmt.with_buffer buf in
  List.iter
    (fun (id, st) ->
      Fmt.pf ppf "===== loop %d invariant =====@." id;
      dump_state r.Analysis.r_actx ppf st)
    (Analysis.invariants r);
  Fmt.flush ppf ();
  Buffer.contents buf

(** Write the dump to a file; returns its size in bytes (the paper's
    "textual file over 4.5 Mb" figure for the A340 program). *)
let to_file (r : Analysis.result) (path : string) : int =
  let s = to_string r in
  let oc = open_out path in
  output_string oc s;
  close_out oc;
  String.length s
