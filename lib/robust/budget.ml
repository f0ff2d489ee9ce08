(** Resource budget: wall-clock deadline, major-heap watermark and the
    interrupt flag, checked from the iterator's statement tick.

    The budget never aborts the analyzer by itself: it raises
    {!Tripped}, and {!Degrade} turns the trip into a precision-shedding
    restart (or, for an interrupt, into a partial result).  All state is
    process-global and inherited by forked pool workers, so a worker
    whose share of the analysis overruns the deadline fails its job
    instead of dragging the whole run past the budget. *)

type reason = Timeout | Memory | Interrupted

exception Tripped of reason

let reason_to_string = function
  | Timeout -> "timeout"
  | Memory -> "memory"
  | Interrupted -> "interrupted"

(* ------------------------------------------------------------------ *)
(* Armed state                                                          *)
(* ------------------------------------------------------------------ *)

let deadline = ref infinity
let mem_limit_words = ref max_int

(* set by the Gc alarm (end of major cycle) so ticks between
   collections need no [Gc.quick_stat] of their own *)
let mem_flag = ref false
let gc_alarm : Gc.alarm option ref = ref None

(* set from the SIGINT/SIGTERM handler; a flag rather than an in-handler
   raise so non-reentrant sections (marshalling, the store rename) are
   never torn *)
let interrupt_flag = ref false
let interrupt () = interrupt_flag := true
let interrupt_pending () = !interrupt_flag
let clear_interrupt () = interrupt_flag := false

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let bytes_per_word = Sys.word_size / 8

let disarm_memory () =
  mem_limit_words := max_int;
  mem_flag := false;
  match !gc_alarm with
  | Some a ->
      Gc.delete_alarm a;
      gc_alarm := None
  | None -> ()

(** Arm the budget.  [deadline] is an absolute [Unix.gettimeofday]
    instant; [max_mem_mb] bounds the major heap.  Re-arming replaces the
    previous budget (the degradation ladder re-arms per attempt). *)
let arm ?deadline:(dl = infinity) ?(max_mem_mb = 0) () =
  deadline := dl;
  if max_mem_mb > 0 then begin
    mem_limit_words := max_mem_mb * 1024 * 1024 / bytes_per_word;
    mem_flag := false;
    if !gc_alarm = None then
      gc_alarm :=
        Some
          (Gc.create_alarm (fun () ->
               if heap_words () > !mem_limit_words then mem_flag := true))
  end
  else disarm_memory ()

let disarm () =
  deadline := infinity;
  disarm_memory ()

(** The armed absolute deadline ([infinity] when none): the pool's
    select loop bounds its sleep by it so a blocked coordinator still
    honors the budget. *)
let armed_deadline () = !deadline

(* ------------------------------------------------------------------ *)
(* The check                                                            *)
(* ------------------------------------------------------------------ *)

(** Raise {!Tripped} if any budget is exhausted or an interrupt is
    pending.  Called from [Iterator.tick_hook] every few hundred
    abstract statements and from the pool's dispatch loop; when nothing
    is armed the cost is three flag reads. *)
let poll () =
  if !interrupt_flag then raise (Tripped Interrupted);
  if
    !mem_flag
    || (!mem_limit_words <> max_int && heap_words () > !mem_limit_words)
  then begin
    (* consume the flag: after a shed-and-restart the next trip must
       reflect the degraded run's own heap, not this one's *)
    mem_flag := false;
    raise (Tripped Memory)
  end;
  if !deadline < infinity && Unix.gettimeofday () > !deadline then
    raise (Tripped Timeout)

(* ------------------------------------------------------------------ *)
(* Signals                                                              *)
(* ------------------------------------------------------------------ *)

let handlers_installed = ref false

let handlers_active () = !handlers_installed

(** Install SIGINT/SIGTERM handlers that set the interrupt flag.  The
    next [poll] — iterator tick or pool loop — raises
    [Tripped Interrupted]; unwinding tears the worker pool down (the
    multi-task fixpoint's [Scheduler.shutdown] finalizer; the daemon
    drains and calls [Pool.shutdown]), flushes the summary cache
    ([Summary.driver] saves on a trip) and surfaces a partial result. *)
let install_signal_handlers () =
  if not !handlers_installed then begin
    handlers_installed := true;
    let h = Sys.Signal_handle (fun _ -> interrupt ()) in
    (try Sys.set_signal Sys.sigint h with Invalid_argument _ -> ());
    try Sys.set_signal Sys.sigterm h with Invalid_argument _ -> ()
  end
