(** Deterministic merge of parallel results: order-insensitive
    combination of worker outputs so that [-j n] output is identical to
    [-j 1]. *)

module C = Astree_core

(** Union alarm groups (in job order), first report per (kind, location)
    wins — the sequential collector's policy — sorted by location. *)
val alarms : C.Alarm.t list list -> C.Alarm.t list

(** Join a disjunction of final states. *)
val join_states : C.Astate.t list -> C.Astate.t

(** Digest of a run's semantic output (alarms, census, final-state
    assertions; excludes timings), for exact equivalence checks. *)
val fingerprint : C.Analysis.result -> string
