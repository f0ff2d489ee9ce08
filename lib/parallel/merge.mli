(** Deterministic merge of parallel results: order-insensitive
    combination of worker outputs so that [-j n] output is identical to
    [-j 1]. *)

module C = Astree_core

(** Join a disjunction of final states. *)
val join_states : C.Astate.t list -> C.Astate.t

(** Digest of a run's semantic output (alarms, census, final-state
    assertions; excludes timings), for exact equivalence checks. *)
val fingerprint : C.Analysis.result -> string
