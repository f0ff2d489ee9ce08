(** The helper process of a split main loop (DESIGN.md §7): the
    [Transfer.split] hook.  One {!Child} forked at loop entry; the
    helper runs its half of the loop, sends a vote at each decision
    and, when the loop ends, its half of the invariant and its
    bookkeeping delta ([Transfer.close]) with its registry delta and
    trace events ({!Astree_obs.Observed}); the parent reaps it on every
    path. *)

module C = Astree_core
module T = C.Transfer
module Metrics = Astree_obs.Metrics
module Observed = Astree_obs.Observed
module Trace = Astree_obs.Trace
module Budget = Astree_robust.Budget

let split_loops = Metrics.counter "par.split_loops"
let recomputed = Metrics.counter "par.recomputed"

(* What the helper sends: a vote, or its half when the loop ends. *)
type from_helper = Vote of T.vote | Done of (C.Astate.t * T.delta) Observed.t

let out_of_step () = raise (Child.Lost "out of step")

let run ~(helper : T.peer -> C.Astate.t * T.delta) (parent : T.peer -> 'a) :
    'a option =
  (* [Observed.job] flushes the trace sink: the helper inherits no
     half-written line *)
  let job = Observed.job helper in
  let body link =
    Child.crash_point ();
    let peer =
      {
        T.pe_exchange =
          (fun v ->
            Child.send link (Vote v);
            (Child.recv ~poll:Budget.poll link : T.vote));
        pe_finish = (fun () -> invalid_arg "Split: the helper has no finish");
      }
    in
    Child.send link (Done (job peer))
  in
  match Child.fork body with
  | exception (Unix.Unix_error _ | Failure _) -> None
  | c -> (
      Metrics.incr split_loops;
      let link = Child.link c in
      (* a trip or an interrupt ends the wait for a vote, and the parent
         then reaps the helper *)
      let from_helper () : from_helper = Child.recv ~poll:Budget.poll link in
      let peer =
        {
          T.pe_exchange =
            (fun v ->
              Child.send link v;
              match from_helper () with Vote w -> w | Done _ -> out_of_step ());
          pe_finish =
            (fun () ->
              match from_helper () with
              | Done o -> Observed.absorb o
              | Vote _ -> out_of_step ());
        }
      in
      (* the parent's half is thrown away when the split ends early: its
         counts and events with it *)
      let m0 = Metrics.snapshot () and mark = Trace.capture_begin () in
      let fallback ~fault =
        Child.reap [ c ];
        Trace.capture_drop mark;
        Metrics.restore m0;
        if fault then Metrics.incr recomputed;
        None
      in
      match parent peer with
      | r ->
          Child.reap ~until:infinity [ c ];
          Trace.capture_keep mark;
          Some r
      | exception Child.Lost _ -> fallback ~fault:true
      | exception T.Half_bottom -> fallback ~fault:false
      | exception e ->
          Child.reap [ c ];
          Trace.capture_keep mark;
          raise e)

let split : T.split = { T.sp_run = run }
