(** Abstract environments: the memory abstract domain of Sect. 6.1.

    The default implementation is the sharable functional map of
    Sect. 6.1.2 ({!Ptmap} with short-cut evaluation), giving abstract
    unions a complexity proportional to the number of differing cells.
    A naive functional-array implementation is kept behind
    [Config.naive_environments] for the E5 ablation, which reproduces the
    paper's observation that array environments make analysis time
    quadratic ("the execution time was divided by seven"). *)

module D = Astree_domains
module Metrics = Astree_obs.Metrics

type t =
  | Shared of Avalue.t Ptmap.t
  | Naive of Avalue.t option array
      (** cell id -> value; [None] = cell absent; updates copy the array *)

let empty ~naive ~ncells =
  if naive then Naive (Array.make (max 1 ncells) None) else Shared Ptmap.empty

let find (e : t) (id : int) : Avalue.t option =
  match e with
  | Shared m -> Ptmap.find_opt id m
  | Naive a -> if id < Array.length a then a.(id) else None

let grow a id =
  if id < Array.length a then Array.copy a
  else begin
    let n = max (id + 1) (2 * Array.length a) in
    let b = Array.make n None in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let set (e : t) (id : int) (v : Avalue.t) : t =
  match e with
  | Shared m -> Shared (Ptmap.add id v m)
  | Naive a ->
      let b = grow a id in
      b.(id) <- Some v;
      Naive b

(** Apply [f] to every cell (used by the clock tick, Sect. 6.2.1). *)
let map_all (f : Avalue.t -> Avalue.t) (e : t) : t =
  match e with
  | Shared m -> Shared (Ptmap.map f m)
  | Naive a -> Naive (Array.map (Option.map f) a)

let iter (f : int -> Avalue.t -> unit) (e : t) : unit =
  match e with
  | Shared m -> Ptmap.iter f m
  | Naive a -> Array.iteri (fun i v -> Option.iter (f i) v) a

let fold (f : int -> Avalue.t -> 'acc -> 'acc) (e : t) (acc : 'acc) : 'acc =
  match e with
  | Shared m -> Ptmap.fold f m acc
  | Naive a ->
      let acc = ref acc in
      Array.iteri (fun i v -> match v with Some v -> acc := f i v !acc | None -> ()) a;
      !acc

let cardinal = function
  | Shared m -> Ptmap.cardinal m
  | Naive a ->
      Array.fold_left (fun n v -> if v = None then n else n + 1) 0 a

(** [diff ~base e]: the cells of [e] whose value is not physically
    [base]'s, with their values; the shared representation skips
    physically shared subtrees. *)
let diff ~(base : t) (e : t) : (int * Avalue.t) list =
  match (base, e) with
  | Shared b, Shared m -> Ptmap.diff ~base:b m
  | _ ->
      fold
        (fun id v acc ->
          match find base id with Some w when w == v -> acc | _ -> (id, v) :: acc)
        e []

(** The cells that satisfy [keep]. *)
let filter (keep : int -> bool) (e : t) : t =
  match e with
  | Shared m -> Shared (Ptmap.filter_map (fun id v -> if keep id then Some v else None) m)
  | Naive a -> Naive (Array.mapi (fun id v -> if keep id then v else None) a)

(* ------------------------------------------------------------------ *)
(* Lattice operations (cell-wise, Sect. 6.1.3)                         *)
(* ------------------------------------------------------------------ *)

(* Cells present on only one side come from locals of one branch: the
   join keeps them (their scope has ended or not started on the other
   side, where any value is acceptable), the meet keeps them too. *)

let lift2_naive (f : Avalue.t -> Avalue.t -> Avalue.t) a b =
  let n = max (Array.length a) (Array.length b) in
  let r = Array.make n None in
  for i = 0 to n - 1 do
    let va = if i < Array.length a then a.(i) else None in
    let vb = if i < Array.length b then b.(i) else None in
    r.(i) <-
      (match (va, vb) with
      | Some x, Some y -> Some (f x y)
      | Some x, None | None, Some x -> Some x
      | None, None -> None)
  done;
  Naive r

let c_join = Metrics.counter "env.join"
let t_join = Metrics.timer "env.join.time"

let join ?(count = true) (a : t) (b : t) : t =
  if count then Metrics.incr c_join;
  let t0 = Metrics.start () in
  let r =
    match (a, b) with
    | Shared ma, Shared mb ->
        Shared
          (Ptmap.union_idem
             (fun _ x y -> if x == y then x else Avalue.join x y)
             ma mb)
    | Naive ma, Naive mb -> lift2_naive Avalue.join ma mb
    | _ -> invalid_arg "Env.join: mixed representations"
  in
  Metrics.stop t_join t0;
  r

(* The cells of both sides, which bind disjoint cells: uncounted, since
   it puts halves together ({!Astate.union}) rather than joining
   flows. *)
let union (a : t) (b : t) : t =
  match (a, b) with
  | Shared ma, Shared mb -> Shared (Ptmap.union_idem (fun _ x _ -> x) ma mb)
  | Naive ma, Naive mb -> lift2_naive (fun x _ -> x) ma mb
  | _ -> invalid_arg "Env.union: mixed representations"

let meet (a : t) (b : t) : t =
  match (a, b) with
  | Shared ma, Shared mb ->
      Shared
        (Ptmap.union_idem
           (fun _ x y -> if x == y then x else Avalue.meet x y)
           ma mb)
  | Naive ma, Naive mb -> lift2_naive Avalue.meet ma mb
  | _ -> invalid_arg "Env.meet: mixed representations"

let widen ~thresholds (a : t) (b : t) : t =
  match (a, b) with
  | Shared ma, Shared mb ->
      Shared
        (Ptmap.union_idem
           (fun _ x y -> if x == y then x else Avalue.widen ~thresholds x y)
           ma mb)
  | Naive ma, Naive mb -> lift2_naive (Avalue.widen ~thresholds) ma mb
  | _ -> invalid_arg "Env.widen: mixed representations"

let narrow (a : t) (b : t) : t =
  match (a, b) with
  | Shared ma, Shared mb ->
      Shared
        (Ptmap.union_idem
           (fun _ x y -> if x == y then x else Avalue.narrow x y)
           ma mb)
  | Naive ma, Naive mb -> lift2_naive Avalue.narrow ma mb
  | _ -> invalid_arg "Env.narrow: mixed representations"

(** Abstract inclusion, with the short-cut on shared subtrees. *)
let subset (a : t) (b : t) : bool =
  match (a, b) with
  | Shared ma, Shared mb ->
      Ptmap.subset_by (fun x y -> x == y || Avalue.subset x y) ma mb
  | Naive ma, Naive mb ->
      let n = max (Array.length ma) (Array.length mb) in
      let ok = ref true in
      for i = 0 to n - 1 do
        let va = if i < Array.length ma then ma.(i) else None in
        let vb = if i < Array.length mb then mb.(i) else None in
        (match (va, vb) with
        | _, None -> ()
        | None, Some _ -> ok := false
        | Some x, Some y -> if not (Avalue.subset x y) then ok := false)
      done;
      !ok
  | _ -> invalid_arg "Env.subset: mixed representations"

let equal (a : t) (b : t) : bool =
  match (a, b) with
  | Shared ma, Shared mb -> Ptmap.equal_by Avalue.equal ma mb
  | Naive _, Naive _ -> subset a b && subset b a
  | _ -> false
