(** A forked child and the pipe pair to it: the one place in the
    analyzer that forks, and the one message format of its children,
    the pool's workers ({!Pool}) and a split loop's helper ({!Split}).
    A child inherits the caller's heap by copy-on-write.  A message is
    one closure-free marshalled value, framed by its marshal header.

    Fault points ([Astree_robust.Faultsim]): [Reply_truncate] on every
    message a child sends, [Worker_crash] at {!crash_point}. *)

exception Lost of string
(** The other end is gone: EOF, a short read, a torn message or a
    write error. *)

type t
(** A child, as its parent sees it. *)

type link
(** This process's end of the pipe pair. *)

val at_fork : (unit -> unit) option ref
(** Hook run once in every freshly forked child, cleared there before
    it runs; its exceptions are swallowed. *)

val fork : ?generation:int -> ?others:t list -> (link -> unit) -> t
(** Flush stdout and stderr, ignore SIGPIPE, and fork a child that
    runs the body, then exits.  The child first closes the pipes of
    [others] (so closing a pipe in the parent always delivers EOF to
    its own child), runs {!at_fork} and takes [generation]
    ([Faultsim.set_generation]).
    @raise Unix.Unix_error or [Failure] if no pipe or process could
    be made. *)

val link : t -> link
(** The parent's end. *)

val fd : t -> Unix.file_descr
(** Readable when a message or EOF from the child is waiting. *)

val send : link -> 'a -> unit
(** Write one message; in a child, [Reply_truncate] writes half of it
    and exits.
    @raise Lost on a write error.
    @raise Invalid_argument on a closure, before writing anything. *)

val recv : ?poll:(unit -> unit) -> link -> 'a
(** Read one whole message.  With [poll], the wait runs it every 0.1 s
    and after a signal, so [poll] may raise to end the wait; without,
    the wait runs no caller code.
    @raise Lost *)

val crash_point : unit -> unit
(** Child side: a [Worker_crash] fault exits here. *)

val reap : ?until:float -> t list -> unit
(** Close the parent's ends, then wait for each child to exit, killing
    one still running at time [until] (default 0: at once; [infinity]
    never kills).  A reaped child is skipped. *)
