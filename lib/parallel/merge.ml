(** Deterministic merge of parallel results.

    Whatever order workers finish in, the parent combines their outputs
    in job order with order-insensitive operations — abstract-state
    joins here, bookkeeping deltas through [Transfer.absorb] — so
    [-j n] output is byte-identical to [-j 1]. *)

module C = Astree_core

(** Join a disjunction of final states ([Astate.join] is associative
    and commutative, so grouping does not matter). *)
let join_states (sts : C.Astate.t list) : C.Astate.t =
  List.fold_left C.Astate.join C.Astate.bottom sts

(** Digest of everything a run asserts — alarms, main-loop invariant
    census, final-state assertions — used by the equivalence tests,
    E16 and perfbench to check that [-j n] and [-j 1] agree exactly.
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
