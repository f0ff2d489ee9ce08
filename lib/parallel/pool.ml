(** Fork-based worker pool.

    The pool forks [jobs] workers ({!Child}) that each serve one job at
    a time over their pipes:

    {v  parent --(job)--> worker --(reply)--> parent  v}

    Jobs and replies must be pure data: a reply that captured a closure
    fails the job instead of silently shipping stale code: it becomes
    [Error "reply does not marshal: ..."] and the worker serves on.

    Robustness: a worker that crashes (a lost child) or overruns the
    per-job timeout is killed and respawned transparently; its job is
    reported as [Error _] and the caller decides whether to retry or to
    recompute in-process.  [map] always returns one result per job, in
    job order, whatever the completion order — the deterministic-merge
    guarantee of the subsystem starts here. *)

type ('a, 'b) t = {
  p_run : 'a -> 'b;
  p_workers : Child.t array;
  mutable p_alive : bool;
  p_busy : float option array;
      (** [Some deadline] per slot with a job in flight (infinity = no
          deadline) *)
}

let size (p : ('a, 'b) t) = Array.length p.p_workers

(* Fault injection (Astree_robust.Faultsim): a worker draws its crash
   and hang points per job, before running it; [Child.send] tears the
   reply. *)
module Faultsim = Astree_robust.Faultsim

let serve (f : 'a -> 'b) (link : Child.link) : unit =
  let rec loop () =
    match (Child.recv link : 'a) with
    | exception Child.Lost _ -> () (* the pool closed the job pipe *)
    | job ->
        Child.crash_point ();
        if Faultsim.fires Faultsim.Worker_hang then
          Unix.sleepf !Faultsim.hang_seconds;
        let reply : ('b, string) result =
          try Ok (f job) with e -> Error (Printexc.to_string e)
        in
        (try Child.send link reply
         with Invalid_argument _ as e ->
           Child.send link
             (Error ("reply does not marshal: " ^ Printexc.to_string e)
               : ('b, string) result));
        loop ()
  in
  loop ()

let at_child_fork = Child.at_fork

(* a worker runs one whole sequential analysis per job and never opens
   a pool of its own *)
let spawn ?generation f others = Child.fork ?generation ~others (serve f)

let create ~(jobs : int) (f : 'a -> 'b) : ('a, 'b) t =
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  (* build the worker list first (each child closing the pipes of the
     already-spawned workers), then freeze it into the array: no
     placeholder element exists at any point, so [spawn] raising
     mid-loop leaves a well-typed (if short-lived) list behind *)
  let rec go acc w =
    if w = jobs then List.rev acc else go (spawn f acc :: acc) (w + 1)
  in
  {
    p_run = f;
    p_workers = Array.of_list (go [] 0);
    p_alive = true;
    p_busy = Array.make jobs None;
  }

(* replacement workers spawned by this process so far: each one's
   generation (Faultsim.set_generation) *)
let respawns = ref 0

let respawn (p : ('a, 'b) t) (w : int) : unit =
  Child.reap [ p.p_workers.(w) ];
  let others = List.filteri (fun i _ -> i <> w) (Array.to_list p.p_workers) in
  incr respawns;
  p.p_workers.(w) <- spawn ~generation:!respawns p.p_run others

let shutdown (p : ('a, 'b) t) : unit =
  if p.p_alive then begin
    p.p_alive <- false;
    (* closing the job pipes makes healthy workers exit on EOF *)
    Child.reap ~until:(Unix.gettimeofday () +. 1.0) (Array.to_list p.p_workers)
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
  List.map (fun w -> (Child.fd p.p_workers.(w), w)) (slots p (fun _ -> true))

let expired_slots (p : ('a, 'b) t) ~(now : float) : int list =
  slots p (fun dl -> now > dl)

let submit ?(timeout = infinity) (p : ('a, 'b) t) (job : 'a) : int option =
  if not p.p_alive then invalid_arg "Pool.submit: pool is shut down";
  (* a worker found dead at send time is replaced, and the job goes to
     its replacement, whose pipe is fresh *)
  let rec send ~retry w =
    match Child.send (Child.link p.p_workers.(w)) job with
    | () ->
        p.p_busy.(w) <- Some (Unix.gettimeofday () +. timeout);
        Some w
    | exception Child.Lost _ ->
        respawn p w;
        if retry then send ~retry:false w else None
  in
  match List.filter (fun w -> p.p_busy.(w) = None) (all_slots p) with
  | w :: _ -> send ~retry:true w
  | [] -> None

let reap (p : ('a, 'b) t) (w : int) : ('b, string) result =
  if p.p_busy.(w) = None then invalid_arg "Pool.reap: slot is idle";
  p.p_busy.(w) <- None;
  (* blocks without polling the budget: an event loop's wait for a
     signal must not unwind from here *)
  match (Child.recv (Child.link p.p_workers.(w)) : ('b, string) result) with
  | reply -> reply
  | exception Child.Lost _ ->
      (* EOF or torn reply: the worker died mid-job *)
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
