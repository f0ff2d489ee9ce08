(** Content-addressed fingerprints of the typed IR.

    A function's fingerprint is a stable hash of everything that can
    influence its analysis: its own structure and types, the transitive
    fingerprints of its callees (polyvariant inlining re-analyzes them
    in place, Sect. 5.4), and the analysis context — configuration,
    target, struct layouts, volatile-input ranges and the frozen cell
    numbering that summaries embed.  Source locations and the dense
    [v_id]s are deliberately excluded, so edits that only move code
    around (whitespace, comments) keep every fingerprint, while any
    body edit changes the edited function and all its transitive
    callers, and nothing else.

    Moves keep fingerprints but not summaries: a summary replays alarms,
    and alarms carry source locations.  {!summary_fn} therefore folds a
    second, location-only closure digest — file, line and column of
    every statement, expression, lvalue and loop of the function and of
    its transitive callees — into the fingerprint a summary is keyed
    by.  The store file stays named by the location-free {!program}
    fingerprint, so a moved program still finds its store, and the
    callees whose code did not move still hit. *)

module F = Astree_frontend
module C = Astree_core

(* ------------------------------------------------------------------ *)
(* Token serialization                                                  *)
(* ------------------------------------------------------------------ *)

(* every atom is NUL-terminated so concatenations cannot collide *)
let add_tok buf s =
  Buffer.add_string buf s;
  Buffer.add_char buf '\x00'

let add_int buf n = add_tok buf (string_of_int n)

(* bit-exact: [string_of_float] would collapse distinct constants *)
let add_float buf f = add_tok buf (Int64.to_string (Int64.bits_of_float f))
let add_bool buf b = add_tok buf (if b then "1" else "0")
let add_ty buf ty = add_tok buf (F.Ctypes.to_string ty)
let add_scalar buf s = add_ty buf (F.Ctypes.Tscalar s)

(* the unique name, not the id: ids are dense allocation order and shift
   when unrelated declarations appear, names only when the source does *)
let add_var buf (v : F.Tast.var) =
  add_tok buf v.F.Tast.v_name;
  add_ty buf v.F.Tast.v_ty;
  add_bool buf v.F.Tast.v_volatile;
  add_tok buf
    (match v.F.Tast.v_kind with
    | F.Tast.Kglobal -> "g"
    | F.Tast.Kstatic f -> "s" ^ f
    | F.Tast.Klocal f -> "l" ^ f
    | F.Tast.Kparam f -> "p" ^ f
    | F.Tast.Ktmp -> "t")

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

let rec add_lval buf (lv : F.Tast.lval) =
  add_ty buf lv.F.Tast.lty;
  match lv.F.Tast.ldesc with
  | F.Tast.Lvar v ->
      add_tok buf "Lv";
      add_var buf v
  | F.Tast.Lindex (a, i) ->
      add_tok buf "Li";
      add_lval buf a;
      add_expr buf i
  | F.Tast.Lfield (a, f) ->
      add_tok buf "Lf";
      add_lval buf a;
      add_tok buf f
  | F.Tast.Lderef v ->
      add_tok buf "Ld";
      add_var buf v

and add_expr buf (e : F.Tast.expr) =
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
      add_lval buf lv
  | F.Tast.Eunop (op, a) ->
      add_tok buf "Eu";
      add_tok buf (unop_tag op);
      add_expr buf a
  | F.Tast.Ebinop (op, a, b) ->
      add_tok buf "Eb";
      add_tok buf (binop_tag op);
      add_expr buf a;
      add_expr buf b
  | F.Tast.Ecast (s, a) ->
      add_tok buf "Ec";
      add_scalar buf s;
      add_expr buf a

let add_arg buf = function
  | F.Tast.Aval e ->
      add_tok buf "Av";
      add_expr buf e
  | F.Tast.Aref lv ->
      add_tok buf "Ar";
      add_lval buf lv

(* [calls] collects callee names for the closure fold; [loop_id] is part
   of the structure because per-loop parameters (unrolling overrides)
   and the invariant table are keyed by it *)
let rec add_stmt buf calls (s : F.Tast.stmt) =
  match s.F.Tast.sdesc with
  | F.Tast.Sassign (lv, e) ->
      add_tok buf "Sa";
      add_lval buf lv;
      add_expr buf e
  | F.Tast.Scall (dst, fname, args) ->
      add_tok buf "Sc";
      (match dst with
      | None -> add_tok buf "-"
      | Some v -> add_var buf v);
      add_tok buf fname;
      calls := fname :: !calls;
      List.iter (add_arg buf) args
  | F.Tast.Sif (c, a, b) ->
      add_tok buf "Si";
      add_expr buf c;
      add_block buf calls a;
      add_tok buf "/";
      add_block buf calls b
  | F.Tast.Swhile (li, c, b) ->
      add_tok buf "Sw";
      add_int buf li.F.Tast.loop_id;
      add_expr buf c;
      add_block buf calls b
  | F.Tast.Sreturn None -> add_tok buf "Sr-"
  | F.Tast.Sreturn (Some e) ->
      add_tok buf "Sr";
      add_expr buf e
  | F.Tast.Sbreak -> add_tok buf "Sb"
  | F.Tast.Scontinue -> add_tok buf "Sk"
  | F.Tast.Swait -> add_tok buf "Sg"
  | F.Tast.Sassert e ->
      add_tok buf "St";
      add_expr buf e
  | F.Tast.Sassume e ->
      add_tok buf "Su";
      add_expr buf e
  | F.Tast.Sskip -> add_tok buf "Ss"
  | F.Tast.Slocal (v, init) -> (
      add_tok buf "Sl";
      add_var buf v;
      match init with
      | None -> add_tok buf "-"
      | Some e -> add_expr buf e)

and add_block buf calls (b : F.Tast.block) =
  add_int buf (List.length b);
  List.iter (add_stmt buf calls) b

(* ------------------------------------------------------------------ *)
(* Source locations                                                     *)
(* ------------------------------------------------------------------ *)

(* Every location a replayed alarm may carry, in traversal order.  The
   structure is pinned by the content fingerprint, so a bare sequence
   of positions is unambiguous; the file name is written only when it
   changes ('F' cannot start a decimal token). *)
let loc_writer buf : F.Loc.t -> unit =
  let file = ref "" in
  fun l ->
    if l.F.Loc.file <> !file then begin
      file := l.F.Loc.file;
      Buffer.add_char buf 'F';
      add_tok buf l.F.Loc.file
    end;
    add_int buf l.F.Loc.line;
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

let add_lval_locs buf lv = lval_locs (loc_writer buf) lv

let local_locations (fd : F.Tast.fundef) : string =
  let buf = Buffer.create 1024 in
  let loc = loc_writer buf in
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
    vice versa.  [timeout] and [max_mem_mb] are likewise excluded: the
    budget never changes a run that completes, only whether a coarser
    configuration (whose own fingerprint differs via
    [shed_packs_above]) is tried instead.  Written as one explicit
    tuple so adding a [Config] field breaks this function until the
    field is classified. *)
let config_digest (cfg : C.Config.t) : string =
  let open C.Config in
  let repr =
    ( ( cfg.use_clocked,
        cfg.use_octagons,
        cfg.use_ellipsoids,
        cfg.use_decision_trees,
        cfg.use_linearization ),
      ( cfg.widening_thresholds,
        cfg.delay_widening,
        cfg.widening_fairness,
        cfg.loop_unroll,
        cfg.loop_unroll_overrides,
        cfg.narrowing_iterations,
        cfg.float_iteration_epsilon,
        cfg.partitioned_functions,
        cfg.max_partitions ),
      ( cfg.max_octagon_pack,
        cfg.max_dtree_bools,
        cfg.max_dtree_nums,
        cfg.useful_packs_only,
        cfg.max_clock,
        cfg.expand_array_max,
        cfg.naive_environments,
        cfg.shed_packs_above ),
      (* result-affecting: conc_shared changes the packing, and the rely
         digest identifies the interference environment of a per-task
         run — summaries must not cross interference rounds whose rely
         sets differ *)
      (cfg.conc_shared, cfg.conc_rely_digest) )
  in
  Digest.to_hex (Digest.string (Marshal.to_string repr [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Context digest                                                       *)
(* ------------------------------------------------------------------ *)

(** Digest of the analysis context a summary implicitly depends on:
    configuration, target machine, struct layouts, volatile-input
    ranges, entry point, and the frozen cell numbering.  Summaries embed
    dense cell ids (in environments and relational packs), so two runs
    may only exchange summaries when id [n] denotes the same cell of the
    same variable in both — which is exactly what hashing the pre-filled
    interner in id order pins down. *)
let context_digest (a : C.Transfer.actx) : string =
  let p = a.C.Transfer.prog in
  let buf = Buffer.create 4096 in
  add_tok buf (config_digest a.C.Transfer.cfg);
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
  let n = C.Cell.count a.C.Transfer.intern in
  add_int buf n;
  for id = 0 to n - 1 do
    let c = C.Cell.of_id a.C.Transfer.intern id in
    add_int buf c.C.Cell.root.F.Tast.v_id;
    add_tok buf (C.Cell.to_string c);
    add_scalar buf c.C.Cell.cty;
    add_bool buf c.C.Cell.weak
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Function and program fingerprints                                    *)
(* ------------------------------------------------------------------ *)

type fn_fp = {
  ff_content : string;  (** location-free: what {!fn} returns *)
  ff_locs : string;     (** location closure digest *)
  ff_summary : string;  (** both together: what {!summary_fn} returns *)
}

type t = {
  fp_context : string;
  fp_funs : (string, fn_fp option) Hashtbl.t;
      (** per-function fingerprints; [None] = not cacheable (recursive) *)
  fp_program : string;
}

let context (fps : t) : string = fps.fp_context
let program (fps : t) : string = fps.fp_program

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
let local_digest (fd : F.Tast.fundef) : string * string list =
  let buf = Buffer.create 1024 in
  let calls = ref [] in
  add_tok buf fd.F.Tast.fd_name;
  add_ty buf fd.F.Tast.fd_ret;
  List.iter
    (fun (p : F.Tast.param) ->
      match p with
      | F.Tast.Pval v ->
          add_tok buf "Pv";
          add_var buf v
      | F.Tast.Pref v ->
          add_tok buf "Pr";
          add_var buf v)
    fd.F.Tast.fd_params;
  add_block buf calls fd.F.Tast.fd_body;
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    List.sort_uniq String.compare !calls )

(** Fingerprint every function of a pre-filled context.  The closure
    fold makes any body edit propagate to all transitive callers: a
    caller's fingerprint folds its callees' fingerprints, recursively.
    Functions on a call cycle get [None] (the analyzer rejects recursion
    anyway, Sect. 4). *)
let of_actx (a : C.Transfer.actx) : t =
  let p = a.C.Transfer.prog in
  let ctx = context_digest a in
  let locals = Hashtbl.create 64 in
  List.iter
    (fun (fname, fd) ->
      Hashtbl.replace locals fname (local_digest fd, local_locations fd))
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
    fp_context = ctx;
    fp_funs;
    fp_program = Digest.to_hex (Digest.string (Buffer.contents pbuf));
  }

(** Fingerprint a program under a configuration: builds a throwaway
    context and pre-fills its cells in program order — the same frozen
    numbering every cache-enabled analysis uses. *)
let make (cfg : C.Config.t) (p : F.Tast.program) : t =
  let a = C.Transfer.make_actx cfg p in
  C.Transfer.prefill_cells a;
  of_actx a
