(** The helper process of a split main loop (DESIGN.md §7): the
    [Transfer.split] hook.  One fork at loop entry; the helper runs its
    half of the loop, sends a vote at each decision and, when the loop
    ends, its half with its registry delta and trace events
    ({!Astree_obs.Observed}); the parent reaps it on every path. *)

module C = Astree_core
module T = C.Transfer
module Metrics = Astree_obs.Metrics
module Observed = Astree_obs.Observed
module Trace = Astree_obs.Trace
module Faultsim = Astree_robust.Faultsim
module Budget = Astree_robust.Budget

let split_loops = Metrics.counter "par.split_loops"
let recomputed = Metrics.counter "par.recomputed"

(* What the helper sends: a vote, or its half when the loop ends. *)
type from_helper = Vote of T.vote | Done of T.half Observed.t

let lost why = raise (T.Peer_lost why)

let close_all fds =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds

(* One marshalled value, written whole. *)
let send fd v =
  let b = Marshal.to_bytes v [] in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> lost (Unix.error_message e)
  in
  go 0

(* Wait until [fd] is readable, polling the budget meanwhile: a trip or
   an interrupt ends the wait, and the parent then reaps the helper. *)
let rec readable fd =
  match Unix.select [ fd ] [] [] 0.1 with
  | [], _, _ ->
      Budget.poll ();
      readable fd
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      Budget.poll ();
      readable fd

let rec read_into fd b off n =
  if n > 0 then begin
    readable fd;
    match Unix.read fd b off n with
    | 0 -> lost "pipe closed"
    | k -> read_into fd b (off + k) (n - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_into fd b off n
    | exception Unix.Unix_error (e, _, _) -> lost (Unix.error_message e)
  end

(* One marshalled value; a torn one is a lost peer. *)
let recv fd =
  let b = Bytes.create Marshal.header_size in
  read_into fd b 0 Marshal.header_size;
  match Marshal.data_size b 0 with
  | exception Failure _ -> lost "torn message"
  | size ->
      let b = Bytes.extend b 0 size in
      read_into fd b Marshal.header_size size;
      Marshal.from_bytes b 0

let rec wait pid =
  try ignore (Unix.waitpid [] pid) with
  | Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
  | Unix.Unix_error _ -> ()

let run ~(helper : T.peer -> T.half) (parent : T.peer -> 'a) : 'a option =
  (* [Observed.job] flushes the trace sink: the helper inherits no
     half-written line, nor buffered output *)
  let job = Observed.job helper in
  flush stdout;
  flush stderr;
  (* a helper dying mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let down_r, down_w = Unix.pipe ~cloexec:true () in
  let up_r, up_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | exception (Unix.Unix_error _ | Failure _) ->
      close_all [ down_r; down_w; up_r; up_w ];
      None
  | 0 ->
      close_all [ down_w; up_r ];
      if Faultsim.fires Faultsim.Worker_crash then Unix._exit 3;
      let peer =
        {
          T.pe_exchange =
            (fun v ->
              send up_w (Vote v);
              (recv down_r : T.vote));
          pe_finish = (fun () -> invalid_arg "Split: the helper has no finish");
        }
      in
      (match job peer with
      | o ->
          (try send up_w (Done o) with _ -> ());
          Unix._exit 0
      | exception _ -> Unix._exit 4)
  | pid -> (
      close_all [ down_r; up_w ];
      Metrics.incr split_loops;
      let reap ~kill =
        close_all [ down_w; up_r ];
        if kill then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        wait pid
      in
      let from_helper () : from_helper = recv up_r in
      let peer =
        {
          T.pe_exchange =
            (fun v ->
              send down_w v;
              match from_helper () with
              | Vote w -> w
              | Done _ -> lost "out of step");
          pe_finish =
            (fun () ->
              match from_helper () with
              | Done o -> Observed.absorb o
              | Vote _ -> lost "out of step");
        }
      in
      (* the parent's half is thrown away when the split ends early: its
         counts and events with it *)
      let m0 = Metrics.snapshot () and mark = Trace.capture_begin () in
      let fallback ~fault =
        reap ~kill:true;
        Trace.capture_drop mark;
        Metrics.restore m0;
        if fault then Metrics.incr recomputed;
        None
      in
      match parent peer with
      | r ->
          reap ~kill:false;
          Trace.capture_keep mark;
          Some r
      | exception T.Peer_lost _ -> fallback ~fault:true
      | exception T.Half_bottom -> fallback ~fault:false
      | exception e ->
          reap ~kill:true;
          Trace.capture_keep mark;
          raise e)

let split : T.split = { T.sp_run = run }
