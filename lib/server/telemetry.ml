(* Request ids and the daemon's JSONL access log.  See telemetry.mli.

   Owned by the daemon's single-threaded event loop, so no locking. *)

(* Process-unique prefix (pid + wall clock hashed) plus a counter:
   unique within a process by the counter, across concurrent clients
   and daemon restarts by the prefix.  Lazy so forked children that
   never mint ids pay nothing. *)
let id_seed =
  lazy (Hashtbl.hash (Unix.getpid (), Unix.gettimeofday ()) land 0xffffff)

let id_counter = ref 0

let gen_id () =
  Stdlib.incr id_counter;
  Printf.sprintf "r%06x-%06x" (Lazy.force id_seed) (!id_counter land 0xffffff)

type outcome = [ `Ok | `Error | `Dedup | `Shutting_down | `Timeout ]

let outcome_string : outcome -> string = function
  | `Ok -> "ok"
  | `Error -> "error"
  | `Dedup -> "dedup"
  | `Shutting_down -> "shutting_down"
  | `Timeout -> "timeout"

type t = { tl_path : string option; mutable tl_oc : out_channel option }

let create path = { tl_path = path; tl_oc = None }

let write_line t (line : string) : unit =
  match t.tl_path with
  | None -> ()
  | Some path -> (
      match
        match t.tl_oc with
        | Some oc -> oc
        | None ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
            t.tl_oc <- Some oc;
            oc
      with
      | exception Sys_error _ -> ()   (* unwritable log never kills serving *)
      | oc ->
          output_string oc line;
          output_char oc '\n';
          Stdlib.flush oc)

let close t =
  (match t.tl_oc with Some oc -> close_out_noerr oc | None -> ());
  t.tl_oc <- None

let event t ~now (kind : string) (fields : (string * Json.t) list) : unit =
  write_line t
    (Json.to_string
       (Json.Obj (("t", Json.Num now) :: ("event", Json.Str kind) :: fields)))

let observe t ~now ?(digest = "") ?(queue_s = 0.) ?(service_s = 0.)
    ?(cache_hits = 0) ~verb ~(outcome : outcome) rid : unit =
  event t ~now "request"
    [
      ("rid", Json.Str rid);
      ("verb", Json.Str verb);
      ("digest", Json.Str digest);
      ("outcome", Json.Str (outcome_string outcome));
      ("queue_s", Json.Num queue_s);
      ("service_s", Json.Num service_s);
      ("cache_hits", Json.Num (float_of_int cache_hits));
    ]
