(* The one worker-side capture wrapper and its coordinator-side merge.
   See observed.mli. *)

type 'a t = {
  value : 'a;
  metrics : Metrics.snapshot;
  events : Trace.event list;
}

let job (f : 'a -> 'b) : 'a -> 'b t =
  Trace.flush ();
  fun x ->
    Trace.in_worker ();
    let m0 = Metrics.snapshot () in
    let mark = Trace.capture_begin () in
    match f x with
    | value ->
        let events = Trace.capture_end mark in
        { value; metrics = Metrics.diff m0; events }
    | exception e ->
        ignore (Trace.capture_end mark);
        raise e

let absorb (o : 'a t) : 'a =
  Metrics.absorb o.metrics;
  Trace.absorb o.events;
  o.value
