(** Abstract cells (Sect. 6.1.1).

    Data structures are mapped to collections of cells: an atomic cell
    for each simple variable, one cell per element for expanded arrays,
    a single cell for shrunk (large) arrays, and one cell per field for
    records.  Whether an array is expanded or shrunk is decided from its
    size against [Config.expand_array_max]. *)

module F = Astree_frontend

type step =
  | Sfield of string  (** record field *)
  | Selem of int      (** element of an expanded array *)
  | Sall              (** the single cell of a shrunk array *)

type t = {
  root : F.Tast.var;
  path : step list;           (** from the root outward *)
  cty : F.Ctypes.scalar;      (** scalar type of the cell's contents *)
  weak : bool;                (** shrunk cells only admit weak updates *)
}

let compare_step (a : step) (b : step) =
  match (a, b) with
  | Sfield x, Sfield y -> String.compare x y
  | Selem x, Selem y -> Int.compare x y
  | Sall, Sall -> 0
  | Sfield _, _ -> -1
  | _, Sfield _ -> 1
  | Selem _, Sall -> -1
  | Sall, Selem _ -> 1

let compare (a : t) (b : t) =
  let c = F.Tast.Var.compare a.root b.root in
  if c <> 0 then c else List.compare compare_step a.path b.path

let equal a b = compare a b = 0

let pp_step ppf = function
  | Sfield f -> Fmt.pf ppf ".%s" f
  | Selem i -> Fmt.pf ppf "[%d]" i
  | Sall -> Fmt.string ppf "[*]"

let pp ppf (c : t) =
  Fmt.pf ppf "%s%a" c.root.F.Tast.v_name Fmt.(list ~sep:nop pp_step) c.path

let to_string c = Fmt.str "%a" pp c

let is_volatile (c : t) = c.root.F.Tast.v_volatile

(* ------------------------------------------------------------------ *)
(* Cell enumeration                                                    *)
(* ------------------------------------------------------------------ *)

(** All cells of a variable, given the structure table and the expansion
    bound.  [expand_array_max] implements the expanded/shrunk choice. *)
let cells_of_var ~(structs : (string * F.Ctypes.struct_def) list)
    ~(expand_array_max : int) (v : F.Tast.var) : t list =
  let rec go (ty : F.Ctypes.t) (path_rev : step list) (weak : bool) : t list =
    match ty with
    | F.Ctypes.Tscalar s ->
        [ { root = v; path = List.rev path_rev; cty = s; weak } ]
    | F.Ctypes.Tarray (elt, n) ->
        if n <= expand_array_max then
          List.concat
            (List.init n (fun i -> go elt (Selem i :: path_rev) weak))
        else go elt (Sall :: path_rev) true
    | F.Ctypes.Tstruct tag -> (
        match List.assoc_opt tag structs with
        | Some sd ->
            List.concat_map
              (fun (f, ft) -> go ft (Sfield f :: path_rev) weak)
              sd.F.Ctypes.fields
        | None -> [])
    | F.Ctypes.Tvoid -> []
    | F.Ctypes.Tptr _ -> [] (* pointer parameters carry no cells *)
  in
  go v.F.Tast.v_ty [] false

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

(** Cells are interned to dense integer ids so that environments can be
    Patricia trees (Sect. 6.1.2).  A scalar variable's cell ([path = []],
    by far the most frequent lookup) is found by indexing an array with
    the root variable id; field and element cells, and variables whose
    id lies beyond the array, go through the [(root id, path)] table. *)
type interner = {
  scalars : int array;  (** root var id -> id of its [path = []] cell, or -1 *)
  tbl : (int * step list, int) Hashtbl.t;  (** (root id, path) -> cell id *)
  mutable rev : t array;                   (** cell id -> cell *)
  mutable next : int;
}

let make_interner ~(vars : int) : interner =
  {
    scalars = Array.make (max 0 vars) (-1);
    tbl = Hashtbl.create 1024;
    rev = [||];
    next = 0;
  }

let fresh (it : interner) (c : t) : int =
  let id = it.next in
  it.next <- id + 1;
  if id >= Array.length it.rev then begin
    let n = max 64 (2 * Array.length it.rev) in
    let a = Array.make n c in
    Array.blit it.rev 0 a 0 (Array.length it.rev);
    it.rev <- a
  end;
  it.rev.(id) <- c;
  id

let in_scalars (it : interner) (root_id : int) =
  root_id >= 0 && root_id < Array.length it.scalars

(* The id of the cell at [path] from root [root_id], or -1 if it was
   never interned. *)
let id_of (it : interner) (root_id : int) (path : step list) : int =
  match path with
  | [] when in_scalars it root_id -> Array.unsafe_get it.scalars root_id
  | path -> (
      match Hashtbl.find it.tbl (root_id, path) with
      | id -> id
      | exception Not_found -> -1)

let intern (it : interner) (c : t) : int =
  let root_id = c.root.F.Tast.v_id in
  let id = id_of it root_id c.path in
  if id >= 0 then id
  else begin
    let id = fresh it c in
    (match c.path with
    | [] when in_scalars it root_id -> it.scalars.(root_id) <- id
    | path -> Hashtbl.replace it.tbl (root_id, path) id);
    id
  end

(* A shared interner never grows under an analysis: a miss is a bug. *)
let lookup (it : interner) (c : t) : int =
  let id = id_of it c.root.F.Tast.v_id c.path in
  if id < 0 then invalid_arg ("Cell.lookup: no cell " ^ to_string c) else id

let of_id (it : interner) (id : int) : t = it.rev.(id)

let find (it : interner) (root_id : int) (path : step list) : int option =
  let id = id_of it root_id path in
  if id < 0 then None else Some id

let count (it : interner) : int = it.next
