(** Deterministic merge of parallel results.

    Whatever order workers finish in, the parent combines their outputs
    with order-insensitive operations — first-wins alarm dedup over
    job-ordered lists, abstract-state joins — so [-j n] output is
    byte-identical to [-j 1]. *)

module C = Astree_core

(** Union alarm groups (listed in job order), deduplicating by
    (kind, location) with the first report winning — the same policy as
    the sequential collector — then sorting by location. *)
let alarms (groups : C.Alarm.t list list) : C.Alarm.t list =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (List.filter (fun (a : C.Alarm.t) ->
         let key = (a.C.Alarm.a_kind, a.C.Alarm.a_loc) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end))
    groups
  |> List.sort C.Alarm.compare

(** Join a disjunction of final states ([Astate.join] is associative
    and commutative, so grouping does not matter). *)
let join_states (sts : C.Astate.t list) : C.Astate.t =
  List.fold_left C.Astate.join C.Astate.bottom sts

(** Digest of everything a run asserts — alarms, main-loop invariant
    census, final-state assertions — used by the equivalence tests and
    the E10 benchmark to check that [-j n] and [-j 1] agree exactly.
    Wall-clock time and other run-dependent stats are excluded. *)
let fingerprint (r : C.Analysis.result) : string =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Fmt.pf ppf "alarms: %d@\n%a@\n" (C.Analysis.n_alarms r)
    Fmt.(list ~sep:(any "@\n") C.Alarm.pp)
    r.C.Analysis.r_alarms;
  (match C.Invariant_census.main_loop_census r with
  | Some c -> Fmt.pf ppf "census:@\n%a@\n" C.Invariant_census.pp c
  | None -> ());
  Fmt.pf ppf "final:@\n";
  C.Invariant_dump.dump_state r.C.Analysis.r_actx ppf r.C.Analysis.r_final;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))
