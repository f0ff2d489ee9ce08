(** The clocked abstract domain (Sect. 6.2.1).

    Counters triggered by external events cannot overflow in practice
    because events are counted at most once per clock cycle and the
    number of cycles is bounded by the maximal continuous operating
    time.  The clocked domain tracks, for each value [x], the triple
    ([x], [x - clock], [x + clock]) where [clock] is a hidden variable
    incremented at each [__astree_wait_for_clock()].

    In a non-bottom triple, a [Bot] clock component means "no
    information" (top); emptiness is carried by the value component. *)

type t = {
  v : Itv.t;       (** the value itself *)
  vminus : Itv.t;  (** value - clock *)
  vplus : Itv.t;   (** value + clock *)
}

val bot : t
val is_bot : t -> bool

(** Inject a plain interval, recording its current offsets to the clock. *)
val of_itv : Itv.t -> Itv.t -> t

(** The plain value component. *)
val to_itv : t -> Itv.t

(** Tighten the value from the clock components:
    [v /\ (v- + clock) /\ (v+ - clock)]. *)
val reduce : Itv.t -> t -> t

(** {1 Lattice operations} *)

val join : t -> t -> t
val meet : t -> t -> t

(** Value component widens with thresholds; unstable clock components
    jump straight to no-information (they drift by one per tick by
    construction, so chasing them up the threshold ladder is pure
    waste — the useful bounds like [counter - clock <= 0] are genuinely
    stable and never widen). *)
val widen : thresholds:Thresholds.t -> t -> t -> t

val narrow : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

(** {1 Transfer functions} *)

(** Effect of a clock tick: [v-] shifts down by one, [v+] up by one. *)
val tick : t -> t

(** Addition of a constant interval, preserving the clock offsets
    (what bounds counters: [x := x + [0,1]] then {!tick} leaves
    [x - clock] non-increasing). *)
val add_const : Itv.t -> t -> t

val pp : Format.formatter -> t -> unit
