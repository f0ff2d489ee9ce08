(** Resource budget: wall-clock deadline, major-heap watermark and the
    interrupt flag, checked from the iterator's statement tick.  Raises
    {!Tripped}; {!Degrade} turns trips into sound precision shedding. *)

type reason = Timeout | Memory | Interrupted

exception Tripped of reason

val reason_to_string : reason -> string

(** Arm the budget: [deadline] is an absolute [Unix.gettimeofday]
    instant, [max_mem_mb] bounds the major heap (a Gc alarm sets a flag
    at the end of each major cycle).  Re-arming replaces the previous
    budget. *)
val arm : ?deadline:float -> ?max_mem_mb:int -> unit -> unit

val disarm : unit -> unit

(** The armed absolute deadline, [infinity] when none — the pool's
    select loop bounds its sleep by it. *)
val armed_deadline : unit -> float

(** Raise {!Tripped} if a budget is exhausted or an interrupt is
    pending; three flag reads when nothing is armed.  Installed as the
    session hook [Transfer.session.ses_tick_hook], which [Iterator.tick]
    calls every 256 abstract statements, and called from the pool's
    dispatch loop. *)
val poll : unit -> unit

(** Flag an interrupt: the next {!poll} raises [Tripped Interrupted].
    Called from the SIGINT/SIGTERM handler (and by tests). *)
val interrupt : unit -> unit

val interrupt_pending : unit -> bool
val clear_interrupt : unit -> unit

(** Install SIGINT/SIGTERM handlers that call {!interrupt}.  Idempotent. *)
val install_signal_handlers : unit -> unit

(** Whether {!install_signal_handlers} ran — when it did, analyses must
    poll even without a timeout/memory budget so interrupts are seen. *)
val handlers_active : unit -> bool
