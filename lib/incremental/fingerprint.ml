(** Content-addressed fingerprints of the typed IR, and the
    program-stable names summaries are keyed by.

    A function's fingerprint is a stable hash of everything that can
    influence its analysis: its own structure and types, the transitive
    fingerprints of its callees (polyvariant inlining re-analyzes them
    in place, Sect. 5.4), and the analysis context — configuration,
    target, struct layouts, volatile-input ranges and entry point.
    Variables, loops and temporaries are written by per-function names
    ({!var_name}, {!loop_name}), never by the dense ids or the
    program-wide [__tmpN] counter, and source locations are excluded:
    whitespace and comment edits keep every fingerprint, and a body
    edit changes the edited function and its transitive callers, and
    nothing else.

    Summaries also replay alarms, and alarms carry locations.
    {!summary_fn} therefore folds a second closure digest: the location
    of every statement, expression, lvalue and loop of the function and
    of its transitive callees, each written relative to the definition
    of the function it lies in ({!relative}).  A copy of the program
    under another file name, or with its functions shifted, keeps every
    summary key, and {!rebase} puts a replayed alarm back at the copy's
    own location. *)

module F = Astree_frontend
module C = Astree_core

(* ------------------------------------------------------------------ *)
(* Token serialization                                                  *)
(* ------------------------------------------------------------------ *)

(* every atom is NUL-terminated so concatenations cannot collide *)
let add_tok buf s =
  Buffer.add_string buf s;
  Buffer.add_char buf '\x00'

(* [string_of_int n]'s digits, written without allocating *)
let add_int buf n =
  let rec digits n =
    if n >= 10 then digits (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  in
  if n >= 0 then digits n else Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf '\x00'

(* bit-exact: [string_of_float] would collapse distinct constants *)
let add_float buf f = add_tok buf (Int64.to_string (Int64.bits_of_float f))
let add_bool buf b = add_tok buf (if b then "1" else "0")
let add_ty buf ty = add_tok buf (F.Ctypes.to_string ty)
let add_scalar buf s = add_tok buf (F.Ctypes.scalar_name s)

(* ------------------------------------------------------------------ *)
(* Program-stable names                                                 *)
(* ------------------------------------------------------------------ *)

(* Tables keyed by variable and loop ids, which are dense: looked up for
   every variable occurrence *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* Lines [sp_lo, sp_hi) of [sp_file], which one owner covers *)
type span = {
  sp_file : string;
  sp_lo : int;
  sp_hi : int;
  sp_owner : (int * string) option;
}

type names = {
  nm_vars : string Ids.t;  (** variable id -> name *)
  nm_loops : string Ids.t;  (** loop id -> name *)
  nm_defs : (string, F.Loc.t) Hashtbl.t;  (** function -> definition *)
  nm_owners : (string, (int * string) array) Hashtbl.t;
      (** file -> (definition line, function), sorted by line *)
  mutable nm_span : span;
      (** the span of the last location looked up: consecutive
          locations mostly lie in one function *)
}

(* Globals and statics are named by their unique source name; every
   other variable by its function, its source name ("<tmp>" for an
   elaboration temporary) and its rank among the function's variables
   of that name, in traversal order.  Loops are named by function and
   rank.  Only an edit of the function itself can change these. *)
let names_of (p : F.Tast.program) : names =
  let vars = Ids.create 1024 and loops = Ids.create 16 in
  let taken = Hashtbl.create 256 in
  let fresh base =
    let k = Option.value ~default:0 (Hashtbl.find_opt taken base) in
    Hashtbl.replace taken base (k + 1);
    if k = 0 then base else Printf.sprintf "%s#%d" base k
  in
  List.iter
    (fun ((v : F.Tast.var), _) ->
      let tag = match v.F.Tast.v_kind with F.Tast.Kstatic _ -> "s:" | _ -> "g:" in
      Ids.replace vars v.F.Tast.v_id (fresh (tag ^ v.F.Tast.v_name)))
    p.F.Tast.p_globals;
  List.iter
    (fun (fname, (fd : F.Tast.fundef)) ->
      let name (v : F.Tast.var) =
        if not (Ids.mem vars v.F.Tast.v_id) then
          Ids.replace vars v.F.Tast.v_id
            (fresh
               (match v.F.Tast.v_kind with
               | F.Tast.Kglobal | F.Tast.Kstatic _ -> "g:" ^ v.F.Tast.v_name
               | F.Tast.Kparam _ -> "p:" ^ v.F.Tast.v_name
               | F.Tast.Klocal _ | F.Tast.Ktmp ->
                   String.concat ":" [ "l"; fname; v.F.Tast.v_orig ]))
      in
      (* an expression's unnamed variables are named in id order, as a
         [VarSet] lists them; most are named already *)
      let unnamed = ref [] in
      let collect (v : F.Tast.var) =
        if not (Ids.mem vars v.F.Tast.v_id) then unnamed := v :: !unnamed
      in
      let name_all () =
        match !unnamed with
        | [] -> ()
        | vs ->
            unnamed := [];
            List.iter name (List.sort_uniq F.Tast.Var.compare vs)
      in
      let expr e =
        F.Tast.iter_expr_vars collect e;
        name_all ()
      and lval lv =
        F.Tast.iter_lval_vars collect lv;
        name_all ()
      in
      List.iter (function F.Tast.Pval v | F.Tast.Pref v -> name v) fd.F.Tast.fd_params;
      let loop = ref 0 in
      F.Tast.iter_stmts
        (fun s ->
          match s.F.Tast.sdesc with
          | F.Tast.Slocal (v, init) ->
              name v;
              Option.iter expr init
          | F.Tast.Scall (dst, _, args) ->
              Option.iter name dst;
              List.iter (function F.Tast.Aval e -> expr e | F.Tast.Aref lv -> lval lv) args
          | F.Tast.Sassign (lv, e) ->
              lval lv;
              expr e
          | F.Tast.Swhile (li, c, _) ->
              Ids.replace loops li.F.Tast.loop_id
                (Printf.sprintf "%s:%d" fname !loop);
              incr loop;
              expr c
          | F.Tast.Sif (c, _, _) | F.Tast.Sreturn (Some c) | F.Tast.Sassert c
          | F.Tast.Sassume c ->
              expr c
          | F.Tast.Sreturn None | F.Tast.Sbreak | F.Tast.Scontinue
          | F.Tast.Swait | F.Tast.Sskip ->
              ())
        fd.F.Tast.fd_body)
    p.F.Tast.p_funs;
  let defs = Hashtbl.create 64 and by_file = Hashtbl.create 4 in
  List.iter
    (fun (fname, (fd : F.Tast.fundef)) ->
      let l = fd.F.Tast.fd_loc in
      Hashtbl.replace defs fname l;
      Hashtbl.replace by_file l.F.Loc.file
        ((l.F.Loc.line, fname)
        :: Option.value ~default:[] (Hashtbl.find_opt by_file l.F.Loc.file)))
    p.F.Tast.p_funs;
  let owners = Hashtbl.create 4 in
  Hashtbl.iter
    (fun file defs ->
      Hashtbl.replace owners file (Array.of_list (List.sort compare defs)))
    by_file;
  {
    nm_vars = vars;
    nm_loops = loops;
    nm_defs = defs;
    nm_owners = owners;
    nm_span = { sp_file = ""; sp_lo = 0; sp_hi = 0; sp_owner = None };
  }

let var_name_in (nm : names) (v : F.Tast.var) : string =
  match Ids.find_opt nm.nm_vars v.F.Tast.v_id with
  | Some n -> n
  | None -> "?" ^ v.F.Tast.v_name

(* The function a location lies in: the last one defined at or before
   it in its file; [None] before the first definition. *)
let owner (nm : names) (l : F.Loc.t) : (int * string) option =
  let line = l.F.Loc.line and sp = nm.nm_span in
  if F.Loc.is_dummy l then None
  else if line >= sp.sp_lo && line < sp.sp_hi && String.equal l.F.Loc.file sp.sp_file
  then sp.sp_owner
  else
    let sp =
      match Hashtbl.find_opt nm.nm_owners l.F.Loc.file with
      | None ->
          { sp_file = l.F.Loc.file; sp_lo = min_int; sp_hi = max_int; sp_owner = None }
      | Some defs ->
          (* the index of the last definition at or before [line], or -1 *)
          let rec search lo hi best =
            if lo > hi then best
            else
              let mid = (lo + hi) / 2 in
              if fst defs.(mid) <= line then search (mid + 1) hi mid
              else search lo (mid - 1) best
          in
          let i = search 0 (Array.length defs - 1) (-1) in
          {
            sp_file = l.F.Loc.file;
            sp_lo = (if i < 0 then min_int else fst defs.(i));
            sp_hi = (if i + 1 < Array.length defs then fst defs.(i + 1) else max_int);
            sp_owner = (if i < 0 then None else Some defs.(i));
          }
    in
    nm.nm_span <- sp;
    sp.sp_owner

let relative_in (nm : names) (l : F.Loc.t) : string * F.Loc.t =
  match owner nm l with
  | None -> ("", l)
  | Some (line, fname) ->
      (fname, { F.Loc.file = ""; line = l.F.Loc.line - line; col = l.F.Loc.col })

(* The variable's name, then what the name does not fix: its type and
   qualifier. *)
let add_var nm buf (v : F.Tast.var) =
  add_tok buf (var_name_in nm v);
  add_ty buf v.F.Tast.v_ty;
  add_bool buf v.F.Tast.v_volatile

let unop_tag : F.Tast.unop -> string = function
  | F.Tast.Neg -> "neg"
  | F.Tast.Bnot -> "bnot"
  | F.Tast.Lnot -> "lnot"
  | F.Tast.Fabs -> "fabs"
  | F.Tast.Sqrt -> "sqrt"

let binop_tag : F.Tast.binop -> string = function
  | F.Tast.Add -> "add" | F.Tast.Sub -> "sub" | F.Tast.Mul -> "mul"
  | F.Tast.Div -> "div" | F.Tast.Mod -> "mod"
  | F.Tast.Shl -> "shl" | F.Tast.Shr -> "shr"
  | F.Tast.Band -> "band" | F.Tast.Bor -> "bor" | F.Tast.Bxor -> "bxor"
  | F.Tast.Land -> "land" | F.Tast.Lor -> "lor"
  | F.Tast.Lt -> "lt" | F.Tast.Gt -> "gt" | F.Tast.Le -> "le"
  | F.Tast.Ge -> "ge" | F.Tast.Eq -> "eq" | F.Tast.Ne -> "ne"

let rec add_lval nm buf (lv : F.Tast.lval) =
  add_ty buf lv.F.Tast.lty;
  match lv.F.Tast.ldesc with
  | F.Tast.Lvar v ->
      add_tok buf "Lv";
      add_var nm buf v
  | F.Tast.Lindex (a, i) ->
      add_tok buf "Li";
      add_lval nm buf a;
      add_expr nm buf i
  | F.Tast.Lfield (a, f) ->
      add_tok buf "Lf";
      add_lval nm buf a;
      add_tok buf f
  | F.Tast.Lderef v ->
      add_tok buf "Ld";
      add_var nm buf v

and add_expr nm buf (e : F.Tast.expr) =
  add_scalar buf e.F.Tast.ety;
  match e.F.Tast.edesc with
  | F.Tast.Eint n ->
      add_tok buf "Ei";
      add_int buf n
  | F.Tast.Efloat x ->
      add_tok buf "Ef";
      add_float buf x
  | F.Tast.Elval lv ->
      add_tok buf "El";
      add_lval nm buf lv
  | F.Tast.Eunop (op, a) ->
      add_tok buf "Eu";
      add_tok buf (unop_tag op);
      add_expr nm buf a
  | F.Tast.Ebinop (op, a, b) ->
      add_tok buf "Eb";
      add_tok buf (binop_tag op);
      add_expr nm buf a;
      add_expr nm buf b
  | F.Tast.Ecast (s, a) ->
      add_tok buf "Ec";
      add_scalar buf s;
      add_expr nm buf a

let add_arg nm buf = function
  | F.Tast.Aval e ->
      add_tok buf "Av";
      add_expr nm buf e
  | F.Tast.Aref lv ->
      add_tok buf "Ar";
      add_lval nm buf lv

(* [calls] collects callee names for the closure fold.  A loop is
   written by its per-function name and its resolved unrolling, so an
   unrolling override keyed by a dense loop id can never move to
   another loop without this fingerprint changing. *)
let rec add_stmt nm cfg buf calls (s : F.Tast.stmt) =
  let block = add_block nm cfg buf calls in
  match s.F.Tast.sdesc with
  | F.Tast.Sassign (lv, e) ->
      add_tok buf "Sa";
      add_lval nm buf lv;
      add_expr nm buf e
  | F.Tast.Scall (dst, fname, args) ->
      add_tok buf "Sc";
      (match dst with
      | None -> add_tok buf "-"
      | Some v -> add_var nm buf v);
      add_tok buf fname;
      calls := fname :: !calls;
      List.iter (add_arg nm buf) args
  | F.Tast.Sif (c, a, b) ->
      add_tok buf "Si";
      add_expr nm buf c;
      block a;
      add_tok buf "/";
      block b
  | F.Tast.Swhile (li, c, b) ->
      add_tok buf "Sw";
      add_tok buf
        (Option.value ~default:"?"
           (Ids.find_opt nm.nm_loops li.F.Tast.loop_id));
      add_int buf (C.Config.unroll_for cfg li.F.Tast.loop_id);
      add_expr nm buf c;
      block b
  | F.Tast.Sreturn None -> add_tok buf "Sr-"
  | F.Tast.Sreturn (Some e) ->
      add_tok buf "Sr";
      add_expr nm buf e
  | F.Tast.Sbreak -> add_tok buf "Sb"
  | F.Tast.Scontinue -> add_tok buf "Sk"
  | F.Tast.Swait -> add_tok buf "Sg"
  | F.Tast.Sassert e ->
      add_tok buf "St";
      add_expr nm buf e
  | F.Tast.Sassume e ->
      add_tok buf "Su";
      add_expr nm buf e
  | F.Tast.Sskip -> add_tok buf "Ss"
  | F.Tast.Slocal (v, init) -> (
      add_tok buf "Sl";
      add_var nm buf v;
      match init with
      | None -> add_tok buf "-"
      | Some e -> add_expr nm buf e)

and add_block nm cfg buf calls (b : F.Tast.block) =
  add_int buf (List.length b);
  List.iter (add_stmt nm cfg buf calls) b

(* ------------------------------------------------------------------ *)
(* Source locations                                                     *)
(* ------------------------------------------------------------------ *)

(* Every location a replayed alarm may carry, in traversal order, each
   relative to the function it lies in (or absolute, 'A', before the
   first definition of its file).  The structure is pinned by the
   content fingerprint, so the bare sequence is unambiguous. *)
let add_loc nm buf (l : F.Loc.t) =
  match owner nm l with
  | None ->
      add_tok buf "A";
      add_tok buf l.F.Loc.file;
      add_int buf l.F.Loc.line;
      add_int buf l.F.Loc.col
  | Some (line, fname) ->
      add_tok buf fname;
      add_int buf (l.F.Loc.line - line);
      add_int buf l.F.Loc.col

let rec lval_locs loc (lv : F.Tast.lval) =
  loc lv.F.Tast.lloc;
  match lv.F.Tast.ldesc with
  | F.Tast.Lvar _ | F.Tast.Lderef _ -> ()
  | F.Tast.Lindex (a, i) ->
      lval_locs loc a;
      expr_locs loc i
  | F.Tast.Lfield (a, _) -> lval_locs loc a

and expr_locs loc (e : F.Tast.expr) =
  loc e.F.Tast.eloc;
  match e.F.Tast.edesc with
  | F.Tast.Eint _ | F.Tast.Efloat _ -> ()
  | F.Tast.Elval lv -> lval_locs loc lv
  | F.Tast.Eunop (_, a) | F.Tast.Ecast (_, a) -> expr_locs loc a
  | F.Tast.Ebinop (_, a, b) ->
      expr_locs loc a;
      expr_locs loc b

let local_locations nm buf (fd : F.Tast.fundef) : string =
  Buffer.clear buf;
  let loc = add_loc nm buf in
  let lval = lval_locs loc and expr = expr_locs loc in
  let arg = function F.Tast.Aval e -> expr e | F.Tast.Aref lv -> lval lv in
  let rec stmt (s : F.Tast.stmt) =
    loc s.F.Tast.sloc;
    match s.F.Tast.sdesc with
    | F.Tast.Sassign (lv, e) ->
        lval lv;
        expr e
    | F.Tast.Scall (_, _, args) -> List.iter arg args
    | F.Tast.Sif (c, a, b) ->
        expr c;
        List.iter stmt a;
        List.iter stmt b
    | F.Tast.Swhile (li, c, b) ->
        loc li.F.Tast.loop_loc;
        expr c;
        List.iter stmt b
    | F.Tast.Sreturn (Some e) | F.Tast.Sassert e | F.Tast.Sassume e -> expr e
    | F.Tast.Slocal (v, init) ->
        (* a local's initializer is assigned at the declaration's
           location *)
        loc v.F.Tast.v_loc;
        Option.iter expr init
    | F.Tast.Sreturn None | F.Tast.Sbreak | F.Tast.Scontinue | F.Tast.Swait
    | F.Tast.Sskip ->
        ()
  in
  loc fd.F.Tast.fd_loc;
  List.iter stmt fd.F.Tast.fd_body;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Configuration digest                                                 *)
(* ------------------------------------------------------------------ *)

(** Digest of every result-affecting configuration field.  [jobs] and
    [summary_cache] are excluded — both are result-neutral by
    construction, so a [-j 1] warm run may reuse a [-j 4] store and
    vice versa.  [loop_unroll_overrides] is keyed by dense loop ids,
    which shift when an earlier function gains a loop: each loop's
    resolved unrolling is folded into its own function's fingerprint
    instead.  [timeout] and [max_mem_mb] are likewise excluded: the
    budget never changes a run that completes, only whether a coarser
    configuration (whose own fingerprint differs via
    [shed_packs_above]) is tried instead.  The record pattern names
    every field, so adding a [Config] field breaks this function
    (warning 9) until the field is classified. *)
let config_digest (cfg : C.Config.t) : string =
  let {
    C.Config.use_clocked;
    use_octagons;
    use_ellipsoids;
    use_decision_trees;
    use_linearization;
    widening_thresholds;
    delay_widening;
    widening_fairness;
    loop_unroll;
    loop_unroll_overrides = _;
    narrowing_iterations;
    float_iteration_epsilon;
    partitioned_functions;
    max_partitions;
    max_octagon_pack;
    max_dtree_bools;
    max_dtree_nums;
    useful_packs_only;
    max_clock;
    expand_array_max;
    naive_environments;
    jobs = _;
    summary_cache = _;
    timeout = _;
    max_mem_mb = _;
    shed_packs_above;
    conc_shared;
    conc_rely_digest;
  } =
    cfg
  in
  let repr =
    ( ( use_clocked,
        use_octagons,
        use_ellipsoids,
        use_decision_trees,
        use_linearization ),
      ( widening_thresholds,
        delay_widening,
        widening_fairness,
        loop_unroll,
        narrowing_iterations,
        float_iteration_epsilon,
        partitioned_functions,
        max_partitions ),
      ( max_octagon_pack,
        max_dtree_bools,
        max_dtree_nums,
        useful_packs_only,
        max_clock,
        expand_array_max,
        naive_environments,
        shed_packs_above ),
      (* result-affecting: conc_shared changes the packing, and the rely
         digest identifies the interference environment of a per-task
         run — summaries must not cross interference rounds whose rely
         sets differ *)
      (conc_shared, conc_rely_digest) )
  in
  Digest.to_hex (Digest.string (Marshal.to_string repr [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Context digest                                                       *)
(* ------------------------------------------------------------------ *)

(** Digest of the analysis context a summary implicitly depends on:
    configuration, target machine, struct layouts, volatile-input
    ranges and entry point.  Nothing in it numbers cells or variables:
    summaries name them ({!var_name}), so adding a variable anywhere
    leaves every other function's fingerprint alone. *)
let context_digest (cfg : C.Config.t) (p : F.Tast.program) : string =
  let buf = Buffer.create 4096 in
  add_tok buf (config_digest cfg);
  let t = p.F.Tast.p_target in
  add_int buf t.F.Ctypes.size_char;
  add_int buf t.F.Ctypes.size_short;
  add_int buf t.F.Ctypes.size_int;
  add_int buf t.F.Ctypes.size_long;
  add_bool buf t.F.Ctypes.args_left_to_right;
  add_bool buf t.F.Ctypes.char_signed;
  List.iter
    (fun (name, (sd : F.Ctypes.struct_def)) ->
      add_tok buf name;
      List.iter
        (fun (f, ty) ->
          add_tok buf f;
          add_ty buf ty)
        sd.F.Ctypes.fields)
    p.F.Tast.p_structs;
  List.iter
    (fun (is : F.Tast.input_spec) ->
      add_tok buf is.F.Tast.in_var.F.Tast.v_name;
      add_float buf is.F.Tast.in_lo;
      add_float buf is.F.Tast.in_hi)
    p.F.Tast.p_inputs;
  add_tok buf p.F.Tast.p_main;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Function and program fingerprints                                    *)
(* ------------------------------------------------------------------ *)

type fn_fp = {
  ff_content : string;  (** location-free: what {!fn} returns *)
  ff_locs : string;     (** relative-location closure digest *)
  ff_summary : string;  (** both together: what {!summary_fn} returns *)
}

type t = {
  fp_names : names;
  fp_funs : (string, fn_fp option) Hashtbl.t;
      (** per-function fingerprints; [None] = not cacheable (recursive) *)
  fp_program : string;
}

let program (fps : t) : string = fps.fp_program
let var_name (fps : t) = var_name_in fps.fp_names

let loop_name (fps : t) (loop_id : int) : string =
  Option.value ~default:"?" (Ids.find_opt fps.fp_names.nm_loops loop_id)

let relative (fps : t) = relative_in fps.fp_names

let rebase (fps : t) ((fname, l) : string * F.Loc.t) : F.Loc.t =
  match Hashtbl.find_opt fps.fp_names.nm_defs fname with
  | None -> l
  | Some d -> { d with F.Loc.line = d.F.Loc.line + l.F.Loc.line; col = l.F.Loc.col }

let add_lval (fps : t) = add_lval fps.fp_names
let add_lval_locs (fps : t) buf lv = lval_locs (add_loc fps.fp_names buf) lv

let find (fps : t) (fname : string) : fn_fp option =
  match Hashtbl.find_opt fps.fp_funs fname with
  | Some r -> r
  | None -> None

let fn (fps : t) (fname : string) : string option =
  Option.map (fun f -> f.ff_content) (find fps fname)

let summary_fn (fps : t) (fname : string) : string option =
  Option.map (fun f -> f.ff_summary) (find fps fname)

(** Local digest of one function — its own structure only — and its
    callee names. *)
let local_digest nm cfg buf (fd : F.Tast.fundef) : string * string list =
  Buffer.clear buf;
  let calls = ref [] in
  add_tok buf fd.F.Tast.fd_name;
  add_ty buf fd.F.Tast.fd_ret;
  List.iter
    (fun (p : F.Tast.param) ->
      match p with
      | F.Tast.Pval v ->
          add_tok buf "Pv";
          add_var nm buf v
      | F.Tast.Pref v ->
          add_tok buf "Pr";
          add_var nm buf v)
    fd.F.Tast.fd_params;
  add_block nm cfg buf calls fd.F.Tast.fd_body;
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    List.sort_uniq String.compare !calls )

(** Fingerprint every function of a program under a configuration.  The
    closure fold makes any body edit propagate to all transitive
    callers: a caller's fingerprint folds its callees' fingerprints,
    recursively.  Functions on a call cycle get [None] (the analyzer
    rejects recursion anyway, Sect. 4). *)
let make (cfg : C.Config.t) (p : F.Tast.program) : t =
  let nm = names_of p in
  let ctx = context_digest cfg p in
  let locals = Hashtbl.create 64 and buf = Buffer.create 4096 in
  List.iter
    (fun (fname, fd) ->
      let local = local_digest nm cfg buf fd in
      Hashtbl.replace locals fname (local, local_locations nm buf fd))
    p.F.Tast.p_funs;
  let fp_funs = Hashtbl.create 64 in
  let hash parts = Digest.to_hex (Digest.string (String.concat "\x00" parts)) in
  let rec fp (visiting : string list) (fname : string) : fn_fp option =
    match Hashtbl.find_opt fp_funs fname with
    | Some r -> r
    | None ->
        if List.mem fname visiting then None
        else
          let r =
            match Hashtbl.find_opt locals fname with
            | None -> None (* call to an unknown function *)
            | Some ((local, callees), locs) ->
                let subs = List.map (fp (fname :: visiting)) callees in
                if List.exists Option.is_none subs then None
                else
                  let subs = List.filter_map Fun.id subs in
                  let content =
                    hash (ctx :: local :: List.map (fun s -> s.ff_content) subs)
                  in
                  let locs =
                    hash (locs :: List.map (fun s -> s.ff_locs) subs)
                  in
                  Some
                    {
                      ff_content = content;
                      ff_locs = locs;
                      ff_summary = hash [ content; locs ];
                    }
          in
          Hashtbl.replace fp_funs fname r;
          r
  in
  List.iter (fun (fname, _) -> ignore (fp [] fname)) p.F.Tast.p_funs;
  let pbuf = Buffer.create 256 in
  add_tok pbuf ctx;
  List.iter
    (fun (fname, _) ->
      add_tok pbuf fname;
      (* the local digest always contributes, so the program fingerprint
         distinguishes programs even through uncacheable functions *)
      add_tok pbuf (fst (fst (Hashtbl.find locals fname)));
      add_tok pbuf
        (match Hashtbl.find fp_funs fname with
        | Some f -> f.ff_content
        | None -> "-"))
    p.F.Tast.p_funs;
  {
    fp_names = nm;
    fp_funs;
    fp_program = Digest.to_hex (Digest.string (Buffer.contents pbuf));
  }
