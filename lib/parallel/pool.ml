(** Fork-based worker pool.

    The pool forks [jobs] worker processes that each inherit the
    caller's heap (in particular a fully-built analysis context) by
    copy-on-write, then serve marshalled jobs over a pair of pipes:

    {v  parent --(Marshal job)--> worker --(Marshal reply)--> parent  v}

    Jobs and replies must be pure data: marshalling uses the default
    (closure-free) flags, so an accidentally captured closure fails the
    job instead of silently shipping stale code: the reply becomes
    [Error "reply does not marshal: ..."] and the worker serves on.

    Robustness: a worker that crashes (EOF on its pipe) or overruns the
    per-job timeout is killed and respawned transparently; its job is
    reported as [Error _] and the caller decides whether to retry or to
    recompute in-process.  [map] always returns one result per job, in
    job order, whatever the completion order — the deterministic-merge
    guarantee of the subsystem starts here. *)

type worker = {
  w_pid : int;
  w_oc : out_channel;  (** job channel, parent -> worker *)
  w_ic : in_channel;   (** reply channel, worker -> parent *)
  w_fd : Unix.file_descr;  (** raw reply fd, for [select] *)
}

type ('a, 'b) t = {
  p_run : 'a -> 'b;
  p_workers : worker array;
  mutable p_alive : bool;
  p_busy : float option array;
      (** [Some deadline] per slot with a job in flight (infinity = no
          deadline) *)
}

let size (p : ('a, 'b) t) = Array.length p.p_workers

(* Fault injection (Astree_robust.Faultsim): the crash / hang /
   truncated-reply recovery paths are exercised by seed-driven injection
   points here. *)
module Faultsim = Astree_robust.Faultsim

let worker_loop (f : 'a -> 'b) (ic : in_channel) (oc : out_channel) : unit =
  let rec loop () =
    match (try Some (Marshal.from_channel ic : 'a) with End_of_file -> None) with
    | None -> ()
    | Some job ->
        if Faultsim.fires Faultsim.Worker_crash then Unix._exit 3;
        if Faultsim.fires Faultsim.Worker_hang then
          Unix.sleepf !Faultsim.hang_seconds;
        let reply : ('b, string) result =
          try Ok (f job) with e -> Error (Printexc.to_string e)
        in
        (* the reply is serialized exactly once, whichever path writes
           it: the truncation fault takes a string to cut in half, the
           normal path streams straight to the channel *)
        if Faultsim.fires Faultsim.Reply_truncate then begin
          (* half a marshalled reply, then die: the parent must treat the
             short read as a crash, not deliver garbage *)
          let s = Marshal.to_string reply [] in
          output_string oc (String.sub s 0 (max 1 (String.length s / 2)));
          flush oc;
          Unix._exit 3
        end
        else begin
          (* Marshal refuses a closure before it writes a byte, so the
             error reply goes out on a clean channel *)
          (try Marshal.to_channel oc reply []
           with Invalid_argument _ as e ->
             Marshal.to_channel oc
               (Error ("reply does not marshal: " ^ Printexc.to_string e)
                 : ('b, string) result)
               []);
          flush oc
        end;
        loop ()
  in
  loop ()

(* An event-loop caller holds descriptors a worker must not inherit:
   the daemon's client sockets in particular, where a worker's stale
   copy keeps the kernel from delivering EOF after the daemon closes a
   connection, wedging the peer.  The hook runs once in each freshly
   forked child and is cleared there first, so a worker that builds a
   nested pool cannot re-close descriptor numbers its own process has
   since reused. *)
let at_child_fork : (unit -> unit) option ref = ref None

(** Fork one worker.  [foreign] lists parent-side descriptors of the
    other live workers: the child closes them so that closing a job
    pipe in the parent always delivers EOF to its worker.  A replacement
    worker gets its [generation]. *)
let spawn ?generation (f : 'a -> 'b) (foreign : Unix.file_descr list) :
    worker =
  let job_r, job_w = Unix.pipe () in
  let res_r, res_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close job_w;
      Unix.close res_r;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) foreign;
      Option.iter Faultsim.set_generation generation;
      (match !at_child_fork with
      | Some hook ->
          at_child_fork := None;
          (try hook () with _ -> ())
      | None -> ());
      (* a worker runs one whole sequential analysis per job and never
         opens a pool of its own *)
      let ic = Unix.in_channel_of_descr job_r in
      let oc = Unix.out_channel_of_descr res_w in
      (try worker_loop f ic oc with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close job_r;
      Unix.close res_w;
      {
        w_pid = pid;
        w_oc = Unix.out_channel_of_descr job_w;
        w_ic = Unix.in_channel_of_descr res_r;
        w_fd = res_r;
      }

let worker_fds (workers : worker list) : Unix.file_descr list =
  List.concat_map
    (fun w -> [ Unix.descr_of_out_channel w.w_oc; w.w_fd ])
    workers

let create ~(jobs : int) (f : 'a -> 'b) : ('a, 'b) t =
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  (* a worker dying mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* build the worker list first (each child closing the pipes of the
     already-spawned workers), then freeze it into the array: no
     placeholder element exists at any point, so [spawn] raising
     mid-loop leaves a well-typed (if short-lived) list behind *)
  let rec go acc w =
    if w = jobs then List.rev acc else go (spawn f (worker_fds acc) :: acc) (w + 1)
  in
  {
    p_run = f;
    p_workers = Array.of_list (go [] 0);
    p_alive = true;
    p_busy = Array.make jobs None;
  }

let dispose_worker (wk : worker) : unit =
  (try Unix.kill wk.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] wk.w_pid) with Unix.Unix_error _ -> ());
  (try close_out_noerr wk.w_oc with _ -> ());
  try close_in_noerr wk.w_ic with _ -> ()

(* replacement workers spawned by this process so far: each one's
   generation (Faultsim.set_generation) *)
let respawns = ref 0

let respawn (p : ('a, 'b) t) (w : int) : unit =
  dispose_worker p.p_workers.(w);
  let others =
    worker_fds (List.filteri (fun i _ -> i <> w) (Array.to_list p.p_workers))
  in
  incr respawns;
  p.p_workers.(w) <- spawn ~generation:!respawns p.p_run others

let shutdown (p : ('a, 'b) t) : unit =
  if p.p_alive then begin
    p.p_alive <- false;
    (* closing the job pipes makes healthy workers exit on EOF *)
    Array.iter (fun wk -> try close_out wk.w_oc with _ -> ()) p.p_workers;
    let deadline = Unix.gettimeofday () +. 1.0 in
    Array.iter
      (fun wk ->
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] wk.w_pid with
          | 0, _ ->
              if Unix.gettimeofday () < deadline then begin
                ignore (Unix.select [] [] [] 0.01);
                wait ()
              end
              else begin
                (try Unix.kill wk.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
                try ignore (Unix.waitpid [] wk.w_pid) with Unix.Unix_error _ -> ()
              end
          | _ -> ()
          | exception Unix.Unix_error _ -> ()
        in
        wait ();
        try close_in_noerr wk.w_ic with _ -> ())
      p.p_workers
  end

(* ------------------------------------------------------------------ *)
(* Slots: one outstanding job per worker                               *)
(* ------------------------------------------------------------------ *)

(* The one dispatch path.  [submit] hands a job to the lowest idle
   worker and returns its slot, the caller selects on [busy_fds], and
   [reap]/[cancel] settle a slot.  [map] below drives a whole job list
   through it; an event loop (the astreed daemon) interleaves the same
   calls with its socket traffic. *)

let all_slots (p : ('a, 'b) t) : int list = List.init (size p) Fun.id

(* in-flight slots whose deadline satisfies [f], lowest first *)
let slots (p : ('a, 'b) t) (f : float -> bool) : int list =
  List.filter
    (fun w -> match p.p_busy.(w) with Some dl -> f dl | None -> false)
    (all_slots p)

let idle_slots (p : ('a, 'b) t) : int =
  size p - List.length (slots p (fun _ -> true))

let busy_fds (p : ('a, 'b) t) : (Unix.file_descr * int) list =
  List.map (fun w -> (p.p_workers.(w).w_fd, w)) (slots p (fun _ -> true))

let expired_slots (p : ('a, 'b) t) ~(now : float) : int list =
  slots p (fun dl -> now > dl)

let submit ?(timeout = infinity) (p : ('a, 'b) t) (job : 'a) : int option =
  if not p.p_alive then invalid_arg "Pool.submit: pool is shut down";
  (* a worker found dead at send time is replaced, and the job goes to
     its replacement, whose pipe is fresh *)
  let rec send ~retry w =
    let wk = p.p_workers.(w) in
    match
      Marshal.to_channel wk.w_oc job [];
      flush wk.w_oc
    with
    | () ->
        p.p_busy.(w) <- Some (Unix.gettimeofday () +. timeout);
        Some w
    | exception _ ->
        respawn p w;
        if retry then send ~retry:false w else None
  in
  match List.filter (fun w -> p.p_busy.(w) = None) (all_slots p) with
  | w :: _ -> send ~retry:true w
  | [] -> None

let reap (p : ('a, 'b) t) (w : int) : ('b, string) result =
  if p.p_busy.(w) = None then invalid_arg "Pool.reap: slot is idle";
  p.p_busy.(w) <- None;
  let wk = p.p_workers.(w) in
  match (Marshal.from_channel wk.w_ic : ('b, string) result) with
  | reply -> reply
  | exception _ ->
      (* EOF or truncated reply: the worker died mid-job *)
      respawn p w;
      Error "worker crashed"

let cancel (p : ('a, 'b) t) (w : int) : unit =
  if p.p_busy.(w) <> None then begin
    p.p_busy.(w) <- None;
    respawn p w
  end

let next_deadline (p : ('a, 'b) t) : float =
  Array.fold_left
    (fun acc slot ->
      match slot with Some dl -> min acc dl | None -> acc)
    infinity p.p_busy

(* ------------------------------------------------------------------ *)
(* Whole job lists                                                     *)
(* ------------------------------------------------------------------ *)

(** Run every job, returning results in job order.  [timeout] bounds
    each job's wall-clock seconds (default: none). *)
let map ?timeout (p : ('a, 'b) t) (jobs : 'a list) : ('b, string) result list =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let results = Array.make n None in
  let job_of = Hashtbl.create (size p) (* in-flight slot -> job index *) in
  let next = ref 0 in
  let settle w r =
    results.(Hashtbl.find job_of w) <- Some r;
    Hashtbl.remove job_of w
  in
  while !next < n || Hashtbl.length job_of > 0 do
    (* honor the resource budget even while blocked on workers: a trip
       unwinds to the pool's owner, whose finalizer shuts it down *)
    Astree_robust.Budget.poll ();
    (* jobs in order, each to the lowest idle slot *)
    while !next < n && idle_slots p > 0 do
      let j = !next in
      incr next;
      match submit ?timeout p jobs.(j) with
      | Some w -> Hashtbl.replace job_of w j
      | None -> results.(j) <- Some (Error "worker pipe closed on send")
    done;
    let busy = busy_fds p in
    if busy <> [] then begin
      (* with no deadline to watch, block until a reply (or EOF)
         arrives: EINTR from a signal still wakes us, and the loop
         header re-polls the budget.  Otherwise sleep until the nearest
         deadline, capped at 0.1 s. *)
      let dl = min (next_deadline p) (Astree_robust.Budget.armed_deadline ()) in
      let dt =
        if dl = infinity then -1.0
        else max 0.0 (min 0.1 (dl -. Unix.gettimeofday ()))
      in
      let ready, _, _ =
        try Unix.select (List.map fst busy) [] [] dt
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      (* replies, then overruns, settle lowest slot first, so workers
         respawn in the same order on every run (their generation
         seeds Faultsim) *)
      List.iter
        (fun (fd, w) -> if List.mem fd ready then settle w (reap p w))
        busy;
      List.iter
        (fun w ->
          cancel p w;
          settle w (Error "worker timed out"))
        (expired_slots p ~now:(Unix.gettimeofday ()))
    end
  done;
  Array.to_list (Array.map Option.get results)

let with_pool ~(jobs : int) (f : 'a -> 'b) (k : ('a, 'b) t -> 'c) : 'c =
  let p = create ~jobs f in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> k p)
