(** Client side of the daemon protocol, used by [astree --connect] and
    the tests: connect to the socket, send one newline-delimited JSON
    request, read one reply line.

    The daemon renders the report with the same {!Report.render} the
    one-shot CLI uses and splices it verbatim as the {e last} member of
    the reply, so {!reply_report} can recover the exact bytes without
    reserializing — that is what makes client-mode output
    byte-identical to in-process output. *)

val try_connect : string -> Unix.file_descr option
(** Connect to the daemon socket; [None] when nothing listens there
    (the CLI then falls back to an in-process analysis). *)

val close : Unix.file_descr -> unit

(** Buffered line reader over a connection: use one [chan] per
    descriptor when pipelining several requests before reading. *)
type chan

val reader : Unix.file_descr -> chan
val read_reply : chan -> (string, string) result
val send : Unix.file_descr -> string -> (unit, string) result

val roundtrip : Unix.file_descr -> string -> (string, string) result
(** Send one request line, read one reply line (without the newline).
    [Error] is an I/O or protocol failure, not a server-reported
    error — those come back as [Ok] lines with [status != "ok"]. *)

(** A decoded reply. *)
type reply = {
  r_status : string;          (** ok | error | shutting_down *)
  r_exit : int;               (** exit code for ok analyze replies *)
  r_error : string option;
  r_report : string option;   (** raw report bytes, analyze replies *)
  r_rid : string option;      (** the daemon's echoed request id *)
  r_line : string;            (** the full reply line *)
}

val decode : string -> reply
val reply_report : string -> string option

val analyze_request_json :
  ?id:int ->
  ?rid:string ->
  sources:(string * string) list ->
  main:string ->
  options:Service.options ->
  unit ->
  Json.t
(** One analyze request as a JSON value (for {!request}).  [rid] is
    the request id stamped on the daemon's reply, trace span and
    access-log line; one is minted with {!Telemetry.gen_id} when not
    supplied. *)

val analyze_request :
  ?id:int ->
  ?rid:string ->
  sources:(string * string) list ->
  main:string ->
  options:Service.options ->
  unit ->
  string
(** Render one analyze request line (no newline). *)

val request : string -> Json.t -> (reply, string) result
(** One-shot convenience: connect to socket [path], send the request
    object, decode the reply, close.  [Error] is a transport failure:
    nothing listens at [path] (no socket file, or a stale one left by a
    killed daemon), or the connection failed or closed before a whole
    reply line arrived.  [astree --connect] answers each with an
    in-process analysis; it never retries. *)

(** What [astree --connect] does with the outcome of {!request}. *)
type verdict =
  | Print of string * int  (** print the daemon's report, exit with the code *)
  | Refused of string  (** [shutting_down] (the daemon is draining): exit 4 *)
  | Fallback of string
      (** analyze in-process, so the report and the exit code are those
          of a one-shot run; the text says why *)

val verdict : (reply, string) result -> verdict
(** A transport error, an [error] reply (a worker crash, a request
    timeout, a refused request) and a malformed reply each give
    {!Fallback}. *)
