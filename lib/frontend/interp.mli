(** Concrete interpreter for the typed IR: an executable version of the
    standard semantics [S]s of Sect. 5.4, used as the ground truth for
    the soundness test suite and for simulating concrete trajectories
    (experiment E9). *)

type error_kind =
  | Int_overflow
  | Div_by_zero
  | Out_of_bounds
  | Float_overflow
  | Invalid_op
  | Assert_failure
  | Shift_range

val pp_error_kind : Format.formatter -> error_kind -> unit

exception Runtime_error of error_kind * Loc.t

type value =
  | Vint of int
  | Vfloat of float
  | Varray of value array
  | Vstruct of (string * value ref) list
  | Vref of reference  (** a by-reference parameter binding *)

and reference = { rget : unit -> value; rset : value -> unit }

(** Interpreter state, exposed to [on_tick] observers. *)
type state

(** Outcome of a concrete run. *)
type outcome =
  | Finished                       (** main returned or max ticks reached *)
  | Error of error_kind * Loc.t

(** Run the program concretely.  [input] supplies a value for each
    volatile read (defaults to the spec midpoint); [max_ticks] bounds
    the synchronous loop (the paper's "maximal execution time",
    Sect. 4); [on_tick] observes the state after each clock tick;
    [on_loop id k] observes it at a visit of loop [id]'s head after [k]
    body passes of this execution of the loop. *)
val run :
  ?max_ticks:int ->
  ?on_tick:(state -> unit) ->
  ?on_loop:(int -> int -> state -> unit) ->
  ?input:(Tast.input_spec -> float) ->
  Tast.program ->
  outcome

(** Execute [tasks] (parameterless functions of the program) under a
    sequentially-consistent interleaving with statement-level atomicity:
    the tasks share the globals, each has private call frames and its
    own tick counter, and between any two statements the scheduler may
    switch tasks.  [schedule ~live:n] picks which of the [n] still-live
    tasks (in task-list order) executes the next statement; a task dies
    when its body returns, its assume fails or its ticks are exhausted.
    [p_main] is not run.  Ground truth for the differential oracle of
    the multi-task interference analysis.
    @raise Invalid_argument if a task name is not a function of [p]. *)
val run_interleaved :
  ?max_ticks:int ->
  ?input:(Tast.input_spec -> float) ->
  schedule:(live:int -> int) ->
  tasks:string list ->
  Tast.program ->
  outcome

(** Clock ticks so far (testing helper). *)
val clock : state -> int

(** Read a global scalar by name (testing helper). *)
val read_global_scalar : state -> string -> value option
