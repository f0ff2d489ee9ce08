(* Client side of the daemon protocol.  See client.mli. *)

let try_connect (path : string) : Unix.file_descr option =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    Some fd
  with Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec write_all fd s off =
  let n = String.length s - off in
  if n > 0 then
    match Unix.write_substring fd s off n with
    | k -> write_all fd s (off + k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

(* a buffered line reader: one read can deliver several pipelined
   replies, so leftover bytes must survive until the next call *)
type chan = { ch_fd : Unix.file_descr; ch_buf : Buffer.t }

let reader fd = { ch_fd = fd; ch_buf = Buffer.create 4096 }

let read_reply (ch : chan) : (string, string) result =
  let chunk = Bytes.create 65536 in
  let rec go () =
    let data = Buffer.contents ch.ch_buf in
    match String.index_opt data '\n' with
    | Some i ->
        Buffer.clear ch.ch_buf;
        Buffer.add_substring ch.ch_buf data (i + 1)
          (String.length data - i - 1);
        Ok (String.sub data 0 i)
    | None -> (
        match Unix.read ch.ch_fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | 0 -> Error "connection closed by daemon"
        | n ->
            Buffer.add_subbytes ch.ch_buf chunk 0 n;
            go ())
  in
  go ()

let send fd (line : string) : (unit, string) result =
  match write_all fd (line ^ "\n") 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | () -> Ok ()

let roundtrip fd (line : string) : (string, string) result =
  match send fd line with
  | Error _ as e -> e
  | Ok () -> read_reply (reader fd)

(* ---- reply decoding ---------------------------------------------- *)

type reply = {
  r_status : string;
  r_exit : int;
  r_error : string option;
  r_report : string option;
  r_rid : string option;
  r_line : string;
}

(* the report is the last member of the reply object, spliced verbatim:
   its bytes run from after the marker to the closing brace *)
let report_marker = "\"report\": "

let reply_report (line : string) : string option =
  let mlen = String.length report_marker in
  let limit = String.length line - mlen in
  let rec find i =
    if i > limit then None
    else if String.sub line i mlen = report_marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = String.length line - 1 in
      if stop > start && line.[stop] = '}' then
        Some (String.sub line start (stop - start))
      else None

let decode (line : string) : reply =
  match Json.parse line with
  | Error _ ->
      { r_status = "error"; r_exit = 1; r_error = Some "unparsable reply";
        r_report = None; r_rid = None; r_line = line }
  | Ok j ->
      {
        r_status =
          Option.value ~default:"error"
            (Json.to_str (Json.member "status" j));
        r_exit = Option.value ~default:0 (Json.to_int (Json.member "exit" j));
        r_error = Json.to_str (Json.member "error" j);
        r_report = reply_report line;
        r_rid = Json.to_str (Json.member "rid" j);
        r_line = line;
      }

(* ---- requests ---------------------------------------------------- *)

let analyze_request_json ?(id = 1) ?rid ~(sources : (string * string) list)
    ~(main : string) ~(options : Service.options) () : Json.t =
  (* the request id travels with the request: the daemon echoes it in
     the reply and stamps it on the request's trace span and
     access-log line, so one id joins the whole path *)
  let rid = match rid with Some r -> r | None -> Telemetry.gen_id () in
  Json.Obj
    [
      ("verb", Json.Str "analyze");
      ("id", Json.Num (float_of_int id));
      ("rid", Json.Str rid);
      ( "files",
        Json.List
          (List.map
             (fun (n, c) ->
               Json.Obj [ ("name", Json.Str n); ("contents", Json.Str c) ])
             sources) );
      ("main", Json.Str main);
      ("options", Service.options_to_json options);
    ]

let analyze_request ?id ?rid ~(sources : (string * string) list)
    ~(main : string) ~(options : Service.options) () : string =
  Json.to_string (analyze_request_json ?id ?rid ~sources ~main ~options ())

let request (path : string) (j : Json.t) : (reply, string) result =
  match try_connect path with
  | None -> Error ("no daemon listening on " ^ path)
  | Some fd ->
      Fun.protect
        ~finally:(fun () -> close fd)
        (fun () -> Result.map decode (roundtrip fd (Json.to_string j)))

type verdict = Print of string * int | Refused of string | Fallback of string

let verdict (res : (reply, string) result) : verdict =
  match res with
  | Error msg -> Fallback msg
  | Ok rep -> (
      match (rep.r_status, rep.r_report) with
      | "ok", Some report -> Print (report, rep.r_exit)
      | "ok", None -> Fallback "daemon: malformed reply"
      | "shutting_down", _ -> Refused "shutting_down"
      | _ ->
          Fallback
            ("daemon: " ^ Option.value ~default:"unknown error" rep.r_error))
