(** Interference maps: the rely/guarantee currency of the outer
    fixpoint (Miné's flow-insensitive interference semantics).

    A map binds shared cells — identified position-independently by
    root variable id and access path — to the interval of values some
    task may write there.  Maps are pure data (sorted association
    lists), so they marshal across the worker pool and digest stably
    into summary-cache fingerprints. *)

module C = Astree_core
module D = Astree_domains

type key = C.Transfer.itf_key

type map = (key * D.Itv.t) list
(* sorted by key, no duplicate keys, no bottom bindings *)

let empty : map = []

let to_table (m : map) : (key, D.Itv.t) Hashtbl.t =
  let tbl = Hashtbl.create (List.length m + 1) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) m;
  tbl

(* Ordered merge of two sorted maps; [f] combines values bound on both
   sides, unpaired bindings are kept as-is. *)
let rec merge (f : D.Itv.t -> D.Itv.t -> D.Itv.t) (a : map) (b : map) : map =
  match (a, b) with
  | [], m | m, [] -> m
  | (ka, va) :: ra, (kb, vb) :: rb ->
      let c = compare ka kb in
      if c < 0 then (ka, va) :: merge f ra b
      else if c > 0 then (kb, vb) :: merge f a rb
      else (ka, f va vb) :: merge f ra rb

let join : map -> map -> map = merge D.Itv.join

(* Widening point by point.  A key appearing only on the new side is
   adopted as-is: the key space is finite (cells of the program's
   shared variables), so new keys can only appear finitely often and
   do not threaten termination.  Classical thresholds ({-oo,+oo})
   converge in one extra round per unstable bound, which keeps the
   outer fixpoint within its round budget. *)
let widen (old_m : map) (new_m : map) : map =
  merge
    (fun o n ->
      if D.Itv.subset n o then o
      else D.Itv.widen ~thresholds:D.Thresholds.none o (D.Itv.join o n))
    old_m new_m

let subset (a : map) (b : map) : bool =
  List.for_all
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some v' -> D.Itv.subset v v'
      | None -> false)
    a

let equal (a : map) (b : map) : bool =
  try List.for_all2 (fun (k, v) (k', v') -> k = k' && D.Itv.equal v v') a b
  with Invalid_argument _ -> false

(* Maps are canonical (sorted, bot-free), so the digest of the
   marshalled value identifies the map.  No_sharing keeps the bytes a
   function of the value alone. *)
let digest (m : map) : string =
  Digest.to_hex (Digest.string (Marshal.to_string m [ Marshal.No_sharing ]))

let cardinal = List.length

let pp (ppf : Format.formatter) (m : map) : unit =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun ((root, path), v) ->
      Format.fprintf ppf "(%d%s) -> %a@ " root
        (String.concat ""
           (List.map
              (function
                | C.Cell.Sfield f -> "." ^ f
                | C.Cell.Selem i -> Printf.sprintf "[%d]" i
                | C.Cell.Sall -> "[*]")
              path))
        D.Itv.pp v)
    m;
  Format.fprintf ppf "@]"
