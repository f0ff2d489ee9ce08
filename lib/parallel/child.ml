(** Forked children and their messages.  Each direction is one pipe
    carrying marshalled values back to back; the marshal header gives
    each value's length, so a reader knows when a message is whole and
    when it was torn. *)

module Faultsim = Astree_robust.Faultsim

exception Lost of string

type link = {
  l_rd : Unix.file_descr;
  l_wr : Unix.file_descr;
  l_child : bool;  (** the child's end: its sends may tear *)
}

type t = { c_pid : int; c_link : link; mutable c_reaped : bool }

let link c = c.c_link
let fd c = c.c_link.l_rd
let lost why = raise (Lost why)

let close_all fds =
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds

(* An event-loop caller holds descriptors a child must not inherit: the
   daemon's client sockets in particular, where a child's stale copy
   keeps the kernel from delivering EOF after the daemon closes a
   connection.  Cleared in the child before it runs, so a child that
   forks its own cannot re-close descriptor numbers it has reused. *)
let at_fork : (unit -> unit) option ref = ref None

let fork ?generation ?(others = []) (body : link -> unit) : t =
  flush stdout;
  flush stderr;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let down_r, down_w = Unix.pipe ~cloexec:true () in
  let up_r, up_w =
    try Unix.pipe ~cloexec:true ()
    with e ->
      close_all [ down_r; down_w ];
      raise e
  in
  match Unix.fork () with
  | exception e ->
      close_all [ down_r; down_w; up_r; up_w ];
      raise e
  | 0 ->
      close_all [ down_w; up_r ];
      List.iter
        (fun c -> if not c.c_reaped then close_all [ fd c; c.c_link.l_wr ])
        others;
      Option.iter Faultsim.set_generation generation;
      Option.iter
        (fun hook ->
          at_fork := None;
          try hook () with _ -> ())
        !at_fork;
      (match body { l_rd = down_r; l_wr = up_w; l_child = true } with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 4)
  | pid ->
      close_all [ down_r; up_w ];
      let l = { l_rd = up_r; l_wr = down_w; l_child = false } in
      { c_pid = pid; c_link = l; c_reaped = false }

let write_all fd b n =
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> lost (Unix.error_message e)
  in
  go 0

let send (l : link) v =
  let b = Marshal.to_bytes v [] in
  if l.l_child && Faultsim.fires Faultsim.Reply_truncate then begin
    write_all l.l_wr b (max 1 (Bytes.length b / 2));
    Unix._exit 3
  end;
  write_all l.l_wr b (Bytes.length b)

(* Wait until [fd] is readable, running [poll] every 0.1 s and after a
   signal. *)
let rec readable poll fd =
  match Unix.select [ fd ] [] [] 0.1 with
  | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) ->
      poll ();
      readable poll fd
  | _ -> ()

let rec read_into ?poll fd b off n =
  if n > 0 then begin
    Option.iter (fun poll -> readable poll fd) poll;
    match Unix.read fd b off n with
    | 0 -> lost "pipe closed"
    | k -> read_into ?poll fd b (off + k) (n - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_into ?poll fd b off n
    | exception Unix.Unix_error (e, _, _) -> lost (Unix.error_message e)
  end

let recv ?poll (l : link) =
  let b = Bytes.create Marshal.header_size in
  read_into ?poll l.l_rd b 0 Marshal.header_size;
  match Marshal.data_size b 0 with
  | exception Failure _ -> lost "torn message"
  | size -> (
      let b = Bytes.extend b 0 size in
      read_into ?poll l.l_rd b Marshal.header_size size;
      try Marshal.from_bytes b 0 with Failure _ -> lost "torn message")

let crash_point () = if Faultsim.fires Faultsim.Worker_crash then Unix._exit 3

(* [waitpid], retried after a signal; a child already gone has exited *)
let rec wait flags pid =
  match Unix.waitpid flags pid with
  | p, _ -> p
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait flags pid
  | exception Unix.Unix_error _ -> pid

let reap ?(until = 0.) cs =
  let cs = List.filter (fun c -> not c.c_reaped) cs in
  List.iter
    (fun c ->
      c.c_reaped <- true;
      close_all [ fd c; c.c_link.l_wr ])
    cs;
  let rec settle c =
    if until = infinity then ignore (wait [] c.c_pid)
    else if wait [ Unix.WNOHANG ] c.c_pid = 0 then
      if Unix.gettimeofday () < until then (
        Unix.sleepf 0.01;
        settle c)
      else (
        (try Unix.kill c.c_pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (wait [] c.c_pid))
  in
  List.iter settle cs
