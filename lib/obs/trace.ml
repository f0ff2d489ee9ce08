(* Structured event tracer.  See trace.mli for the contract.

   The buffer is a growable array used two ways: with a sink attached it
   is a staging area flushed to the channel in chunks (never dropped, so
   span begin/end pairs stay balanced in the file); without one it is a
   ring keeping the last !capacity events for in-process consumers
   (tests, worker capture sections).  Ring eviction is suspended while a
   capture is open so a worker's reply is never truncated. *)

type arg = S of string | I of int | F of float | B of bool

type phase = Pbegin | Pend | Ppoint

type event = {
  ev_kind : string;
  ev_phase : phase;
  ev_loc : string;
  ev_args : (string * arg) list;
  ev_t : float;
}

let enabled = ref false
let with_time = ref true
let capacity = ref 65536

(* Ring evictions were silent before this counter existed: an operator
   reading a truncated ring had no way to tell "quiet run" from "ring
   too small".  The count depends on buffer sizing, not on the
   analysis — outside the determinism contract. *)
let m_dropped = Metrics.counter "trace.dropped"

(* growable buffer; [start] is the ring head (index of oldest event) *)
let buf : event array ref = ref [||]
let start = ref 0
let len = ref 0
let total_pushed = ref 0         (* events ever buffered; capture marks *)

let sink : out_channel option ref = ref None
let captures = ref 0             (* open capture sections *)
let t0 = ref 0.                  (* trace epoch, set lazily *)

let flush_chunk = 512            (* events buffered before a sink write *)

let dummy =
  { ev_kind = ""; ev_phase = Ppoint; ev_loc = ""; ev_args = []; ev_t = 0. }

let nth i = !buf.((!start + i) mod Array.length !buf)

(* ---- serialization ----------------------------------------------- *)

let arg_json = function
  | S s -> "\"" ^ Metrics.json_escape s ^ "\""
  | I n -> string_of_int n
  | F f -> Printf.sprintf "%.6f" f
  | B b -> if b then "true" else "false"

let to_json (e : event) : string =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"kind\": \"";
  Buffer.add_string b (Metrics.json_escape e.ev_kind);
  Buffer.add_string b "\", \"phase\": \"";
  Buffer.add_string b
    (match e.ev_phase with Pbegin -> "B" | Pend -> "E" | Ppoint -> "P");
  Buffer.add_string b "\"";
  if e.ev_loc <> "" then begin
    Buffer.add_string b ", \"loc\": \"";
    Buffer.add_string b (Metrics.json_escape e.ev_loc);
    Buffer.add_string b "\""
  end;
  Buffer.add_string b (Printf.sprintf ", \"t\": %.6f" e.ev_t);
  if e.ev_args <> [] then begin
    Buffer.add_string b ", \"args\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b "\"";
        Buffer.add_string b (Metrics.json_escape k);
        Buffer.add_string b "\": ";
        Buffer.add_string b (arg_json v))
      e.ev_args;
    Buffer.add_string b "}"
  end;
  Buffer.add_string b "}";
  Buffer.contents b

(* ---- buffer machinery -------------------------------------------- *)

let write_out oc n =
  (* write the n oldest events and advance the ring head *)
  for i = 0 to n - 1 do
    output_string oc (to_json (nth i));
    output_char oc '\n'
  done;
  start := (!start + n) mod Array.length !buf;
  len := !len - n

let flush () =
  match !sink with
  | Some oc when !len > 0 ->
      write_out oc !len;
      Stdlib.flush oc
  | _ -> ()

let push (e : event) =
  incr total_pushed;
  (* ring mode (no sink, no open capture): at capacity, evict the oldest
     event instead of growing — keyed on !capacity, not the array size,
     so shrinking the capacity between runs takes effect immediately *)
  if !sink = None && !captures = 0 && !len > 0 && !len >= !capacity then begin
    start := (!start + 1) mod Array.length !buf;
    decr len;
    Metrics.incr m_dropped
  end;
  let cap = Array.length !buf in
  if !len = cap then
    if cap = 0 then begin
      buf := Array.make 16 dummy;
      start := 0
    end
    else begin
      let nbuf = Array.make (cap * 2) dummy in
      for i = 0 to !len - 1 do
        nbuf.(i) <- nth i
      done;
      buf := nbuf;
      start := 0
    end;
  !buf.((!start + !len) mod Array.length !buf) <- e;
  incr len;
  if !sink <> None && !len >= flush_chunk then
    match !sink with Some oc -> write_out oc !len | None -> ()

let now () =
  if not !with_time then 0.
  else begin
    let t = Unix.gettimeofday () in
    if !t0 = 0. then t0 := t;
    t -. !t0
  end

let mk phase ?(loc = "") ?(args = []) kind =
  push
    { ev_kind = kind; ev_phase = phase; ev_loc = loc; ev_args = args;
      ev_t = now () }

let emit ?loc ?args kind = if !enabled then mk Ppoint ?loc ?args kind
let span_begin ?loc ?args kind = if !enabled then mk Pbegin ?loc ?args kind
let span_end ?loc ?args kind = if !enabled then mk Pend ?loc ?args kind

(* ---- sink -------------------------------------------------------- *)

let set_sink oc = sink := Some oc

let close () =
  flush ();
  sink := None

let in_worker () = sink := None

(* ---- capture / absorb -------------------------------------------- *)

(* Capture marks are values of [total_pushed]: ring eviction and sink
   flushes move the buffer head but never change how many events exist
   past the mark, so the job's events are always the newest
   (total_pushed - mark) buffered ones.  Workers detach their sink
   first, so nothing past the mark is ever flushed away. *)

let capture_begin () =
  incr captures;
  !total_pushed

let capture_end (mark : int) : event list =
  decr captures;
  if not !enabled then []
  else begin
    let n = min (!total_pushed - mark) !len in
    let off = !len - n in
    let evs = List.init n (fun i -> nth (off + i)) in
    (* the outermost capture takes its events out: workers never evict *)
    if !captures = 0 then len := off;
    evs
  end

let absorb (evs : event list) : unit =
  if !enabled then List.iter push evs

let events () = List.init !len nth

let clear () =
  start := 0;
  len := 0;
  total_pushed := 0;
  t0 := 0.
