(** Little-endian Patricia trees over non-negative integer keys, with the
    short-cut evaluation of Sect. 6.1.2.

    "We chose to implement abstract environments using functional maps
    implemented as sharable balanced binary trees, with short-cut
    evaluation when computing the abstract union, abstract intersection,
    widening or narrowing of physically identical subtrees."

    Patricia trees make the short-cut especially effective: the tree
    shape is canonical (determined by the key set alone), so two
    environments that differ on a few cells share all other subtrees
    physically, and the binary operations below return in time
    proportional to the number of *differing* cells. *)

type 'a t =
  | Empty
  | Leaf of int * 'a
  | Branch of {
      p : int;  (** prefix: the key bits below the branching bit *)
      m : int;  (** branching bit *)
      l : 'a t;  (** subtree with the bit 0 *)
      r : 'a t;  (** subtree with the bit 1 *)
    }

let empty = Empty

let is_empty = function Empty -> true | _ -> false

let singleton k v = Leaf (k, v)

(* bit twiddling *)
let zero_bit k m = k land m = 0
let lowest_bit x = x land -x
let mask k m = k land (m - 1)
let match_prefix k p m = mask k m = p
let branching_bit p0 p1 = lowest_bit (p0 lxor p1)

let mk p m l r = Branch { p; m; l; r }

let rec find_opt k = function
  | Empty -> None
  | Leaf (j, v) -> if j = k then Some v else None
  | Branch { p; m; l; r; _ } ->
      if not (match_prefix k p m) then None
      else if zero_bit k m then find_opt k l
      else find_opt k r

let mem k t = find_opt k t <> None

let join p0 t0 p1 t1 =
  let m = branching_bit p0 p1 in
  if zero_bit p0 m then mk (mask p0 m) m t0 t1
  else mk (mask p0 m) m t1 t0

let rec add k v = function
  | Empty -> Leaf (k, v)
  | Leaf (j, old) as t ->
      if j = k then if old == v then t else Leaf (k, v)
      else join k (Leaf (k, v)) j t
  | Branch { p; m; l; r; _ } as t ->
      if match_prefix k p m then
        if zero_bit k m then
          let l' = add k v l in
          if l' == l then t else mk p m l' r
        else
          let r' = add k v r in
          if r' == r then t else mk p m l r'
      else join k (Leaf (k, v)) p t

let branch p m l r =
  match (l, r) with Empty, t | t, Empty -> t | _ -> mk p m l r

let rec cardinal = function
  | Empty -> 0
  | Leaf _ -> 1
  | Branch { l; r; _ } -> cardinal l + cardinal r

let rec iter f = function
  | Empty -> ()
  | Leaf (k, v) -> f k v
  | Branch { l; r; _ } ->
      iter f l;
      iter f r

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf (k, v) -> f k v acc
  | Branch { l; r; _ } -> fold f r (fold f l acc)

let rec map f = function
  | Empty -> Empty
  | Leaf (k, v) -> Leaf (k, f v)
  | Branch { p; m; l; r; _ } -> mk p m (map f l) (map f r)

let rec mapi f = function
  | Empty -> Empty
  | Leaf (k, v) -> Leaf (k, f k v)
  | Branch { p; m; l; r; _ } -> mk p m (mapi f l) (mapi f r)

let rec filter_map f = function
  | Empty -> Empty
  | Leaf (k, v) -> ( match f k v with Some v' -> Leaf (k, v') | None -> Empty)
  | Branch { p; m; l; r; _ } -> branch p m (filter_map f l) (filter_map f r)

let bindings t = fold (fun k v acc -> (k, v) :: acc) t []

let rec for_all p = function
  | Empty -> true
  | Leaf (k, v) -> p k v
  | Branch { l; r; _ } -> for_all p l && for_all p r

let rec exists p = function
  | Empty -> false
  | Leaf (k, v) -> p k v
  | Branch { l; r; _ } -> exists p l || exists p r

(* ------------------------------------------------------------------ *)
(* Binary operations with physical-equality short-cuts                 *)
(* ------------------------------------------------------------------ *)

(** [union_idem f a b]: keys present in either map; on keys present in
    both, the value is [f k va vb].  REQUIREMENT for the short-cut: [f]
    must be idempotent-on-equal, i.e. [f k v v] is (semantically) [v].
    Physically identical subtrees are returned unchanged in O(1): this
    is the Sect. 6.1.2 sub-linear abstract union. *)
let rec union_idem (f : int -> 'a -> 'a -> 'a) (s : 'a t) (t : 'a t) : 'a t =
  if s == t then s
  else
    match (s, t) with
    | Empty, t -> t
    | s, Empty -> s
    | Leaf (k, v), t -> (
        match find_opt k t with
        | Some w ->
            let u = f k v w in
            if u == w then t else add k u t
        | None -> add k v t)
    | s, Leaf (k, w) -> (
        match find_opt k s with
        | Some v ->
            let u = f k v w in
            if u == v then s else add k u s
        | None -> add k w s)
    | Branch { p; m; l = s0; r = s1; _ }, Branch { p = q; m = n; l = t0; r = t1; _ }
      ->
        if m = n && p = q then begin
          let l = union_idem f s0 t0 and r = union_idem f s1 t1 in
          if l == s0 && r == s1 then s
          else if l == t0 && r == t1 then t
          else mk p m l r
        end
        else if m < n && match_prefix q p m then
          if zero_bit q m then
            let l = union_idem f s0 t in
            if l == s0 then s else mk p m l s1
          else
            let r = union_idem f s1 t in
            if r == s1 then s else mk p m s0 r
        else if m > n && match_prefix p q n then
          if zero_bit p n then
            let l = union_idem f s t0 in
            if l == t0 then t else mk q n l t1
          else
            let r = union_idem f s t1 in
            if r == t1 then t else mk q n t0 r
        else join p s q t

(** [diff ~base t]: the bindings of [t] whose value is not physically
    [base]'s binding of the same key, keys [base] lacks included, in
    the order of {!bindings}.  Physically shared subtrees are skipped in
    O(1), and the tree shape follows the key set alone, so when [t]'s
    keys include [base]'s the cost follows the bindings that differ. *)
let diff ~(base : 'a t) (t : 'a t) : (int * 'a) list =
  let cons k v acc = (k, v) :: acc in
  let rec go base t acc =
    if base == t then acc
    else
      match (base, t) with
      | Branch { p; m; l = b0; r = b1 }, Branch { p = q; m = n; l = t0; r = t1 }
        when m = n && p = q ->
          go b1 t1 (go b0 t0 acc)
      | Branch { p; m; _ }, Branch { p = q; m = n; l = t0; r = t1 }
        when m > n && match_prefix p q n ->
          (* [base] lies in one half of [t]: the other half is all new *)
          if zero_bit p n then fold cons t1 (go base t0 acc)
          else go base t1 (fold cons t0 acc)
      | _ ->
          fold
            (fun k v acc ->
              match find_opt k base with
              | Some w when w == v -> acc
              | _ -> (k, v) :: acc)
            t acc
  in
  go base t []

(** [inter_keys f a b]: keys present in BOTH maps, combined with [f].
    Same idempotence requirement and short-cut as {!union_idem}. *)
let rec inter_keys (f : int -> 'a -> 'a -> 'a option) (s : 'a t) (t : 'a t) :
    'a t =
  if s == t then s
  else
    match (s, t) with
    | Empty, _ | _, Empty -> Empty
    | Leaf (k, v), t -> (
        match find_opt k t with
        | Some w -> ( match f k v w with Some u -> Leaf (k, u) | None -> Empty)
        | None -> Empty)
    | s, Leaf (k, w) -> (
        match find_opt k s with
        | Some v -> ( match f k v w with Some u -> Leaf (k, u) | None -> Empty)
        | None -> Empty)
    | Branch { p; m; l = s0; r = s1; _ }, Branch { p = q; m = n; l = t0; r = t1; _ }
      ->
        if m = n && p = q then begin
          let l = inter_keys f s0 t0 and r = inter_keys f s1 t1 in
          if l == s0 && r == s1 then s else branch p m l r
        end
        else if m < n && match_prefix q p m then
          inter_keys f (if zero_bit q m then s0 else s1) t
        else if m > n && match_prefix p q n then
          inter_keys f s (if zero_bit p n then t0 else t1)
        else Empty

(** [subset_by le a b]: true when every key of [b] is in [a] with
    [le va vb] — the pointwise abstract inclusion used by the iterator's
    stabilization check, with the physical short-cut.  Keys missing in
    [b] are unconstrained (top); keys missing in [a] fail. *)
let rec subset_by (le : 'a -> 'a -> bool) (s : 'a t) (t : 'a t) : bool =
  if s == t then true
  else
    match (s, t) with
    | _, Empty -> true
    | Empty, _ -> false
    | Leaf (k, v), t ->
        (* every binding of t must be over key k with le v *)
        for_all (fun j w -> j = k && le v w) t
    | s, Leaf (k, w) -> (
        match find_opt k s with Some v -> le v w | None -> false)
    | Branch { p; m; l = s0; r = s1; _ }, Branch { p = q; m = n; l = t0; r = t1; _ }
      ->
        if m = n && p = q then subset_by le s0 t0 && subset_by le s1 t1
        else if m < n && match_prefix q p m then
          subset_by le (if zero_bit q m then s0 else s1) t
        else if m > n && match_prefix p q n then
          (* t splits below s: check both halves of t against s *)
          subset_by le s t0 && subset_by le s t1
        else false

let rec equal_by (eq : 'a -> 'a -> bool) (s : 'a t) (t : 'a t) : bool =
  s == t
  ||
  match (s, t) with
  | Empty, Empty -> true
  | Leaf (k, v), Leaf (j, w) -> k = j && eq v w
  | Branch { p; m; l = s0; r = s1; _ }, Branch { p = q; m = n; l = t0; r = t1; _ } ->
      p = q && m = n && equal_by eq s0 t0 && equal_by eq s1 t1
  | _ -> false
