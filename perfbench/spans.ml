(* In-memory span recorder for the traced per-layer pass.

   A span is one timed call into a layer's public function: name, start,
   end, the enclosing span and the request it belongs to.  Spans stay in
   memory while the pass runs and are written out at the end, so
   recording costs two clock reads and one allocation per call. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  rid : int;  (* request id shared by every span of one request *)
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []  (* newest first *)
let open_ids : int list ref = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  open_ids := [];
  next_id := 0

(* Run [f] inside a span; the span is recorded even when [f] raises. *)
let within ~rid name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        open_ids := List.tl !open_ids;
        recorded := { id; parent; rid; name; t0; t1 } :: !recorded)
      f
  end

let all () = List.rev !recorded

(* Length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, Float.max lb b))
        | Some (la, lb) -> (total +. (lb -. la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0., None) clipped
  in
  match last with Some (la, lb) -> total +. (lb -. la) | None -> total

(* Self time of each span: its duration minus the part of it that its
   child spans cover. *)
let self_times (spans : span list) : (span * float) list =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

(* Total self time per span name, sorted by name. *)
let self_by_name (spans : span list) : (string * float) list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let to_jsonl (spans : span list) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        "{\"id\": %d, \"parent\": %d, \"rid\": %d, \"name\": \"%s\", \
         \"start\": %.6f, \"end\": %.6f}\n"
        s.id s.parent s.rid s.name s.t0 s.t1)
    spans;
  Buffer.contents b
