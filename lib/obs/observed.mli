(** What one pooled job observed, shipped back with its result: the one
    capture path of every forked worker (the [-j] scheduler's and the
    analysis daemon's).

    A worker runs [job f]: it detaches the trace sink it inherited (the
    coordinator owns the file), then returns [f]'s result together with
    the registry delta and the trace events of the call.  The
    coordinator re-emits both with {!absorb}, in job order, so a pooled
    run reports the counters and the event sequence of the in-process
    run. *)

type 'a t = {
  value : 'a;
  metrics : Metrics.snapshot;  (** {!Metrics.diff} over the job *)
  events : Trace.event list;  (** events the job emitted, in order *)
}

val job : ('a -> 'b) -> 'a -> 'b t
(** [job f] flushes the trace sink at once: apply it in the coordinator,
    just before the pool forks, so no worker inherits half-written
    lines.  The returned function runs in the worker.  If [f] raises,
    the exception escapes with nothing shipped. *)

val absorb : 'a t -> 'a
(** Merge the delta into the registry and re-emit the events through
    the local buffer and sink (a no-op for events when tracing is off);
    returns the job's result. *)
