(** Structured event tracer: ring-buffered spans and point events,
    serialized as JSONL through [--trace FILE].

    {b Cost model.}  Every emission site is guarded by {!enabled} — a
    single ref read and a branch when tracing is off, which is the
    default.  When tracing is on, events are appended to an in-memory
    buffer; with a sink attached the buffer is flushed to the channel in
    chunks, without one it behaves as a ring keeping the most recent
    {!capacity} events.

    {b Determinism.}  The event {e set} is a function of the analysis
    performed: a single analysis runs sequentially at every [-j], so
    sorting events by (loc, kind, args) yields the same list at [-j n]
    as at [-j 1].  Pool workers, of the [-j] scheduler and of the
    daemon alike, ship their events back inside their replies
    ({!Observed.job}); the coordinator re-emits them in job order
    ({!Observed.absorb}), so a multi-task run writes the same event
    sequence at [-j n] as at [-j 1].  Timestamps ([ev_t]) are wall-clock
    and excluded from that guarantee; {!with_time} turns them off
    entirely.

    {b Span balance.}  In file mode the buffer is flushed, never
    dropped, so every [`B] (begin) line has a matching [`E] (end) line —
    the CI trace-smoke step checks exactly this.  Ring-mode dropping is
    suspended while a capture section is open, so worker deltas are
    never truncated. *)

type arg = S of string | I of int | F of float | B of bool

type phase = Pbegin | Pend | Ppoint

type event = {
  ev_kind : string;                (* e.g. "loop.fixpoint", "phase.parse" *)
  ev_phase : phase;
  ev_loc : string;                 (* "file:line:col", or "" *)
  ev_args : (string * arg) list;
  ev_t : float;                    (* seconds since trace start; 0 when
                                      {!with_time} is unset *)
}

val enabled : bool ref
(** Master gate.  Emission sites read this before building any event
    payload: keep call sites shaped
    [if !Trace.enabled then Trace.emit ...]. *)

val with_time : bool ref
(** Record wall-clock timestamps (default [true]); the determinism
    tests unset it so events compare structurally. *)

val capacity : int ref
(** Most recent events retained in ring mode (no sink); default 65536.
    Each eviction bumps the [trace.dropped] metrics counter so capacity
    loss is visible to operators; that counter depends on buffer sizing
    and sits outside the determinism contract. *)

(** {1 Emission} *)

val emit : ?loc:string -> ?args:(string * arg) list -> string -> unit
(** Point event. *)

val span_begin : ?loc:string -> ?args:(string * arg) list -> string -> unit
val span_end : ?loc:string -> ?args:(string * arg) list -> string -> unit

(** {1 Sink (--trace FILE)} *)

val set_sink : out_channel -> unit
(** Stream events to [oc] as JSONL (flushed in chunks); the caller keeps
    ownership of the channel but must call {!close} before closing it. *)

val flush : unit -> unit
(** Write every buffered event to the sink now (no-op without one).
    {!Observed.job} calls this before a pool forks its workers, so a
    child can never inherit half-written buffered lines. *)

val close : unit -> unit
(** Flush and detach the sink. *)

val in_worker : unit -> unit
(** Detach the inherited sink without flushing (the coordinator owns
    the file); {!Observed.job} calls it in a pool worker, which ships
    its events back in its replies. *)

(** {1 In-memory access (tests, worker replies)} *)

val events : unit -> event list
(** The buffered events, oldest first. *)

val capture_begin : unit -> int
val capture_end : int -> event list
(** [capture_end (capture_begin ())] around a job returns the events it
    emitted; ring dropping is suspended while any capture is open.  The
    outermost one takes them out of the buffer: a pooled worker's buffer
    does not grow across jobs. *)

val absorb : event list -> unit
(** Re-emit events recorded in another process (a worker reply), in
    order, through the local buffer/sink.  No-op when tracing is off. *)

val to_json : event -> string
(** One JSONL line (no trailing newline):
    [{"kind": .., "phase": "B"|"E"|"P", "loc": .., "t": .., "args": {..}}]. *)

val clear : unit -> unit
(** Drop buffered events and reset the clock (sink stays attached). *)
