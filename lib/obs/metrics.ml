(* Unified metrics registry: named counters / timers / gauges / log2
   histograms.  See metrics.mli for the cost and determinism contract.

   One flat table keyed by name; entries are mutable records so the hot
   operations (incr, add, stop) touch a single field and never re-hash
   the name.  Everything observable leaves through [snapshot] (pure,
   marshallable — the parallel delta format) and the renderers below:
   [render_json] (the --metrics file) and [render_profile] (--profile). *)

type kind = Kcounter | Ktimer | Kgauge | Khist

let n_buckets = 32

type entry = {
  e_name : string;
  e_kind : kind;
  mutable e_n : int;      (* counter / gauge value *)
  mutable e_t : float;    (* timer accumulated seconds *)
  e_buckets : int array;  (* histogram buckets; [||] otherwise *)
}

let timing = ref false
let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

let find_or_add (name : string) (kind : kind) : entry =
  match Hashtbl.find_opt registry name with
  | Some e ->
      if e.e_kind <> kind then
        invalid_arg ("Metrics: " ^ name ^ " registered with another kind");
      e
  | None ->
      let e =
        {
          e_name = name;
          e_kind = kind;
          e_n = 0;
          e_t = 0.;
          e_buckets = (if kind = Khist then Array.make n_buckets 0 else [||]);
        }
      in
      Hashtbl.add registry name e;
      e

(* ---- counters ---------------------------------------------------- *)

type counter = entry

let counter name = find_or_add name Kcounter
let incr (c : counter) = c.e_n <- c.e_n + 1
let add (c : counter) n = c.e_n <- c.e_n + n
let value (c : counter) = c.e_n

(* ---- timers ------------------------------------------------------ *)

type timer = entry

let timer name = find_or_add name Ktimer
let start () = if !timing then Unix.gettimeofday () else 0.

let stop (t : timer) (t0 : float) =
  if !timing then t.e_t <- t.e_t +. (Unix.gettimeofday () -. t0)

let timer_value (t : timer) = t.e_t

(* ---- gauges ------------------------------------------------------ *)

let set_gauge name v = (find_or_add name Kgauge).e_n <- v

let gauge_value name =
  match Hashtbl.find_opt registry name with
  | Some e when e.e_kind = Kgauge -> Some e.e_n
  | _ -> None

(* ---- histograms -------------------------------------------------- *)

type histogram = entry

let histogram name = find_or_add name Khist

let bucket_of (v : int) : int =
  (* bucket i holds v with 2^i <= v+1 < 2^(i+1); clamp the tail *)
  let v = if v < 0 then 0 else v in
  let rec go i x = if x <= 1 || i = n_buckets - 1 then i else go (i + 1) (x lsr 1) in
  go 0 (v + 1)

let observe (h : histogram) (v : int) =
  let b = h.e_buckets in
  let i = bucket_of v in
  b.(i) <- b.(i) + 1

(* ---- snapshots --------------------------------------------------- *)

type sample = {
  s_name : string;
  s_kind : kind;
  s_n : int;
  s_t : float;
  s_buckets : int array;
}

type snapshot = sample list  (* sorted by name *)

let sample_of (e : entry) : sample =
  {
    s_name = e.e_name;
    s_kind = e.e_kind;
    s_n = e.e_n;
    s_t = e.e_t;
    s_buckets = Array.copy e.e_buckets;
  }

let snapshot () : snapshot =
  Hashtbl.fold (fun _ e acc -> sample_of e :: acc) registry []
  |> List.sort (fun a b -> String.compare a.s_name b.s_name)

(* Registry-now minus [earlier]; entries created since the snapshot
   diff against zero.  Gauges are point-in-time, not flows: excluded,
   as are entries the interval did not touch — worker deltas stay small
   and [absorb] on them is the identity anyway. *)
let diff (earlier : snapshot) : snapshot =
  let base = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace base s.s_name s) earlier;
  let all_zero (s : sample) =
    s.s_n = 0 && s.s_t = 0. && Array.for_all (fun v -> v = 0) s.s_buckets
  in
  snapshot ()
  |> List.filter_map (fun (s : sample) ->
         if s.s_kind = Kgauge then None
         else
           let d =
             match Hashtbl.find_opt base s.s_name with
             | None -> s
             | Some b ->
                 {
                   s with
                   s_n = s.s_n - b.s_n;
                   s_t = s.s_t -. b.s_t;
                   s_buckets =
                     Array.mapi (fun i v -> v - b.s_buckets.(i)) s.s_buckets;
                 }
           in
           if all_zero d then None else Some d)

let absorb (delta : snapshot) : unit =
  List.iter
    (fun (s : sample) ->
      let e = find_or_add s.s_name s.s_kind in
      match s.s_kind with
      | Kgauge -> e.e_n <- s.s_n
      | Kcounter -> e.e_n <- e.e_n + s.s_n
      | Ktimer -> e.e_t <- e.e_t +. s.s_t
      | Khist ->
          Array.iteri
            (fun i v -> e.e_buckets.(i) <- e.e_buckets.(i) + v)
            s.s_buckets)
    delta

let names (s : snapshot) = List.map (fun x -> x.s_name) s

let find_int (ss : snapshot) (name : string) : int option =
  List.find_map
    (fun (s : sample) ->
      if s.s_name = name && (s.s_kind = Kcounter || s.s_kind = Kgauge) then
        Some s.s_n
      else None)
    ss

(* ---- rendering --------------------------------------------------- *)

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_snapshot_json ?(timers = true) (ss : snapshot) : string =
  let of_kind k = List.filter (fun s -> s.s_kind = k) ss in
  let obj fmt_one samples =
    "{"
    ^ String.concat ", "
        (List.map
           (fun s -> Printf.sprintf "\"%s\": %s" (json_escape s.s_name) (fmt_one s))
           samples)
    ^ "}"
  in
  let ints s = string_of_int s.s_n in
  let hist s =
    (* trailing zero buckets are trimmed so small histograms stay small *)
    let last = ref (-1) in
    Array.iteri (fun i v -> if v <> 0 then last := i) s.s_buckets;
    "["
    ^ String.concat ","
        (List.init (!last + 1) (fun i -> string_of_int s.s_buckets.(i)))
    ^ "]"
  in
  let time s = Printf.sprintf "%.6f" s.s_t in
  Printf.sprintf "{\"counters\": %s, \"gauges\": %s, \"histograms\": %s%s}"
    (obj ints (of_kind Kcounter))
    (obj ints (of_kind Kgauge))
    (obj hist (of_kind Khist))
    (if timers then Printf.sprintf ", \"timers\": %s" (obj time (of_kind Ktimer))
     else "")

let render_json ?(timers = true) () : string =
  render_snapshot_json ~timers (snapshot ())

(* The --profile table: timer [NAME.time] pairs with counter [NAME] *)
let render_profile () : string =
  let stem name =
    if String.ends_with ~suffix:".time" name then
      String.sub name 0 (String.length name - 5)
    else name
  in
  let row (s : sample) =
    let calls =
      match Hashtbl.find_opt registry (stem s.s_name) with
      | Some e when e.e_kind = Kcounter -> e.e_n
      | _ -> 0
    in
    Printf.sprintf "%-30s %10d calls %12.6f s\n" s.s_name calls s.s_t
  in
  "--- profile (cumulative, merged across workers) ---\n"
  ^ String.concat ""
      (List.filter_map
         (fun s -> if s.s_kind = Ktimer then Some (row s) else None)
         (snapshot ()))

let reset_entry (e : entry) =
  e.e_n <- 0;
  e.e_t <- 0.;
  Array.fill e.e_buckets 0 (Array.length e.e_buckets) 0

let reset () = Hashtbl.iter (fun _ e -> reset_entry e) registry

let restore (earlier : snapshot) : unit =
  let base = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace base s.s_name s) earlier;
  Hashtbl.iter
    (fun name e ->
      match (e.e_kind, Hashtbl.find_opt base name) with
      | (Ktimer | Kgauge), _ -> ()
      | (Kcounter | Khist), None -> reset_entry e
      | (Kcounter | Khist), Some s ->
          e.e_n <- s.s_n;
          Array.blit s.s_buckets 0 e.e_buckets 0 (Array.length e.e_buckets))
    registry

let reset_named name =
  match Hashtbl.find_opt registry name with
  | Some e -> reset_entry e
  | None -> ()
