(** Concrete interpreter for the typed IR.

    This is an executable version of the standard semantics [S]s of
    Sect. 5.4.  It is used by the test suite as the ground truth for
    soundness properties (every concrete behaviour must be covered by the
    abstract semantics) and by the benchmarks to simulate concrete filter
    trajectories (experiment E9).

    Run-time errors raise {!Runtime_error} with the paper's error
    classification: anything that would make an operator application
    "give an error on the concrete level" (Sect. 5.3) — integer overflow
    wrt the end-user semantics, division by zero, out-of-bounds access,
    float overflow or invalid operation. *)

open Tast

type error_kind =
  | Int_overflow
  | Div_by_zero
  | Out_of_bounds
  | Float_overflow
  | Invalid_op
  | Assert_failure
  | Shift_range

let pp_error_kind ppf k =
  Fmt.string ppf
    (match k with
    | Int_overflow -> "integer overflow"
    | Div_by_zero -> "division by zero"
    | Out_of_bounds -> "out-of-bounds array access"
    | Float_overflow -> "float overflow"
    | Invalid_op -> "invalid operation"
    | Assert_failure -> "assertion failure"
    | Shift_range -> "shift out of range")

exception Runtime_error of error_kind * Loc.t

(* ------------------------------------------------------------------ *)
(* Values and stores                                                   *)
(* ------------------------------------------------------------------ *)

type value =
  | Vint of int
  | Vfloat of float
  | Varray of value array
  | Vstruct of (string * value ref) list
  | Vref of reference  (** a by-reference parameter binding *)

and reference = { rget : unit -> value; rset : value -> unit }

let rec zero_value structs (t : Ctypes.t) : value =
  match t with
  | Ctypes.Tscalar (Ctypes.Tint _) -> Vint 0
  | Ctypes.Tscalar (Ctypes.Tfloat _) -> Vfloat 0.0
  | Ctypes.Tarray (elt, n) ->
      Varray (Array.init n (fun _ -> zero_value structs elt))
  | Ctypes.Tstruct tag -> (
      match List.assoc_opt tag structs with
      | Some sd ->
          Vstruct
            (List.map
               (fun (f, ft) -> (f, ref (zero_value structs ft)))
               sd.Ctypes.fields)
      | None -> Vstruct [])
  | Ctypes.Tvoid | Ctypes.Tptr _ -> Vint 0

let rec value_of_init structs (t : Ctypes.t) (i : init) : value =
  match (t, i) with
  | _, Izero -> zero_value structs t
  | Ctypes.Tscalar (Ctypes.Tint _), Iint n -> Vint n
  | Ctypes.Tscalar (Ctypes.Tfloat _), Ifloat f -> Vfloat f
  | Ctypes.Tscalar (Ctypes.Tfloat _), Iint n -> Vfloat (float_of_int n)
  | Ctypes.Tscalar (Ctypes.Tint _), Ifloat f -> Vint (int_of_float f)
  | Ctypes.Tarray (elt, n), Iarray items ->
      let arr = Array.init n (fun _ -> zero_value structs elt) in
      List.iteri
        (fun k it -> if k < n then arr.(k) <- value_of_init structs elt it)
        items;
      Varray arr
  | Ctypes.Tstruct tag, Istruct fields -> (
      match List.assoc_opt tag structs with
      | Some sd ->
          Vstruct
            (List.map
               (fun (f, ft) ->
                 let i =
                   match List.assoc_opt f fields with
                   | Some i -> i
                   | None -> Izero
                 in
                 (f, ref (value_of_init structs ft i)))
               sd.Ctypes.fields)
      | None -> Vstruct [])
  | _ -> zero_value structs t

(* ------------------------------------------------------------------ *)
(* Interpreter state                                                   *)
(* ------------------------------------------------------------------ *)

type state = {
  prog : program;
  funs : (string, fundef) Hashtbl.t;  (** [prog]'s {!Tast.fun_table} *)
  store : (int, value ref) Hashtbl.t;  (** var id -> storage *)
  mutable frames : (int, value ref) Hashtbl.t list;
  input : input_spec -> float;  (** volatile input oracle *)
  mutable clock : int;
  max_ticks : int;
  on_tick : (state -> unit) option;
  on_loop : (int -> int -> state -> unit) option;
      (** called at every loop-head visit with the loop id and the
          number of body passes this execution of the loop has made *)
  on_stmt : (state -> unit) option;
      (** called before every statement (and before each loop-guard
          re-evaluation) — the multi-task interleaver yields here *)
}

exception Stop_execution
exception Brk
exception Cont
exception Ret of value option

let find_storage st (v : var) : value ref =
  let rec in_frames = function
    | [] -> (
        match Hashtbl.find_opt st.store v.v_id with
        | Some r -> r
        | None ->
            (* locals are created on the fly *)
            let r = ref (zero_value st.prog.p_structs v.v_ty) in
            Hashtbl.replace st.store v.v_id r;
            r)
    | f :: rest -> (
        match Hashtbl.find_opt f v.v_id with
        | Some r -> r
        | None -> in_frames rest)
  in
  in_frames st.frames

let current_frame st =
  match st.frames with
  | f :: _ -> f
  | [] -> invalid_arg "no active frame"

(* Volatile input read: consult the oracle. *)
let read_volatile st (v : var) : value =
  match List.find_opt (fun s -> Var.equal s.in_var v) st.prog.p_inputs with
  | Some spec ->
      let f = st.input spec in
      if Ctypes.is_integer v.v_ty then Vint (int_of_float f) else Vfloat f
  | None -> !(find_storage st v)

(* ------------------------------------------------------------------ *)
(* Scalar operations with error checking                               *)
(* ------------------------------------------------------------------ *)

let check_int_range loc (s : Ctypes.scalar) tgt n =
  match s with
  | Ctypes.Tint (r, sg) ->
      let lo, hi = Ctypes.range_of_int_type tgt r sg in
      if n < lo || n > hi then raise (Runtime_error (Int_overflow, loc));
      n
  | _ -> n

let check_float loc (s : Ctypes.scalar) f =
  if Float.is_nan f then raise (Runtime_error (Invalid_op, loc));
  (match s with
  | Ctypes.Tfloat k ->
      if Float.abs f > Ctypes.fmax k then
        raise (Runtime_error (Float_overflow, loc))
  | _ -> ());
  f

let round_single f = Int32.float_of_bits (Int32.bits_of_float f)

let as_int loc = function
  | Vint n -> n
  | Vfloat _ -> raise (Runtime_error (Invalid_op, loc))
  | _ -> raise (Runtime_error (Invalid_op, loc))

let as_float loc = function
  | Vfloat f -> f
  | Vint n -> float_of_int n
  | _ -> raise (Runtime_error (Invalid_op, loc))

let truth = function Vint n -> n <> 0 | Vfloat f -> f <> 0.0 | _ -> false

(* ------------------------------------------------------------------ *)
(* Lvalue resolution                                                   *)
(* ------------------------------------------------------------------ *)

let rec resolve_lval st (lv : lval) : reference =
  match lv.ldesc with
  | Lvar v ->
      if v.v_volatile then
        {
          rget = (fun () -> read_volatile st v);
          rset = (fun x -> find_storage st v := x);
        }
      else
        let r = find_storage st v in
        { rget = (fun () -> !r); rset = (fun x -> r := x) }
  | Lderef v -> (
      let r = find_storage st v in
      match !r with
      | Vref re -> re
      | _ -> { rget = (fun () -> !r); rset = (fun x -> r := x) })
  | Lindex (a, i) -> (
      let base = resolve_lval st a in
      let idx = as_int lv.lloc (eval_expr st i) in
      match base.rget () with
      | Varray arr ->
          if idx < 0 || idx >= Array.length arr then
            (* report at the subscript expression, like the analyzer *)
            raise (Runtime_error (Out_of_bounds, i.eloc));
          {
            rget = (fun () -> arr.(idx));
            rset = (fun x -> arr.(idx) <- x);
          }
      | _ -> raise (Runtime_error (Invalid_op, lv.lloc)))
  | Lfield (a, f) -> (
      let base = resolve_lval st a in
      match base.rget () with
      | Vstruct fields -> (
          match List.assoc_opt f fields with
          | Some r -> { rget = (fun () -> !r); rset = (fun x -> r := x) }
          | None -> raise (Runtime_error (Invalid_op, lv.lloc)))
      | _ -> raise (Runtime_error (Invalid_op, lv.lloc)))

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

and eval_expr st (e : expr) : value =
  let tgt = st.prog.p_target in
  let loc = e.eloc in
  match e.edesc with
  | Eint n -> Vint n
  | Efloat f -> Vfloat f
  | Elval lv -> (resolve_lval st lv).rget ()
  | Ecast (s, a) -> (
      let v = eval_expr st a in
      match (s, v) with
      | Ctypes.Tint _, Vint n -> Vint (check_int_range loc s tgt n)
      | Ctypes.Tint _, Vfloat f ->
          if Float.is_nan f then raise (Runtime_error (Invalid_op, loc));
          let n = Float.to_int (Float.of_int (int_of_float f)) in
          Vint (check_int_range loc s tgt n)
      | Ctypes.Tfloat Ctypes.Fsingle, Vint n ->
          Vfloat (round_single (float_of_int n))
      | Ctypes.Tfloat Ctypes.Fdouble, Vint n -> Vfloat (float_of_int n)
      | Ctypes.Tfloat Ctypes.Fsingle, Vfloat f ->
          Vfloat (check_float loc s (round_single f))
      | Ctypes.Tfloat Ctypes.Fdouble, Vfloat f -> Vfloat (check_float loc s f)
      | _ -> raise (Runtime_error (Invalid_op, loc)))
  | Eunop (op, a) -> (
      let v = eval_expr st a in
      match (op, v) with
      | Neg, Vint n -> Vint (check_int_range loc e.ety tgt (-n))
      | Neg, Vfloat f -> Vfloat (-.f)
      | Bnot, Vint n -> Vint (check_int_range loc e.ety tgt (lnot n))
      | Lnot, v -> Vint (if truth v then 0 else 1)
      | Fabs, Vfloat f -> Vfloat (Float.abs f)
      | Fabs, Vint n -> Vfloat (Float.abs (float_of_int n))
      | Sqrt, v ->
          let f = as_float loc v in
          if f < 0.0 then raise (Runtime_error (Invalid_op, loc));
          let r = sqrt f in
          let r = if e.ety = Ctypes.Tfloat Ctypes.Fsingle then round_single r else r in
          Vfloat r
      | _ -> raise (Runtime_error (Invalid_op, loc)))
  | Ebinop (op, a, b) -> (
      match op with
      | Land ->
          if truth (eval_expr st a) then
            Vint (if truth (eval_expr st b) then 1 else 0)
          else Vint 0
      | Lor ->
          if truth (eval_expr st a) then Vint 1
          else Vint (if truth (eval_expr st b) then 1 else 0)
      | _ -> (
          let va = eval_expr st a in
          let vb = eval_expr st b in
          match e.ety with
          | Ctypes.Tint _ when (match op with
                                | Lt | Gt | Le | Ge | Eq | Ne -> false
                                | _ -> true) -> (
              let x = as_int loc va and y = as_int loc vb in
              let r =
                match op with
                | Add -> x + y
                | Sub -> x - y
                | Mul -> x * y
                | Div ->
                    if y = 0 then raise (Runtime_error (Div_by_zero, loc));
                    x / y
                | Mod ->
                    if y = 0 then raise (Runtime_error (Div_by_zero, loc));
                    x mod y
                | Shl ->
                    if y < 0 || y > 31 then
                      raise (Runtime_error (Shift_range, loc));
                    x lsl y
                | Shr ->
                    if y < 0 || y > 31 then
                      raise (Runtime_error (Shift_range, loc));
                    x asr y
                | Band -> x land y
                | Bor -> x lor y
                | Bxor -> x lxor y
                | _ -> assert false
              in
              Vint (check_int_range loc e.ety tgt r))
          | Ctypes.Tfloat k -> (
              let x = as_float loc va and y = as_float loc vb in
              let r =
                match op with
                | Add -> x +. y
                | Sub -> x -. y
                | Mul -> x *. y
                | Div ->
                    if y = 0.0 then raise (Runtime_error (Div_by_zero, loc));
                    x /. y
                | _ -> assert false
              in
              let r = if k = Ctypes.Fsingle then round_single r else r in
              Vfloat (check_float loc e.ety r))
          | _ -> (
              (* comparisons *)
              let cmp =
                match (va, vb) with
                | Vint x, Vint y -> Int.compare x y
                | _ -> Float.compare (as_float loc va) (as_float loc vb)
              in
              let r =
                match op with
                | Lt -> cmp < 0
                | Gt -> cmp > 0
                | Le -> cmp <= 0
                | Ge -> cmp >= 0
                | Eq -> cmp = 0
                | Ne -> cmp <> 0
                | _ -> assert false
              in
              Vint (if r then 1 else 0))))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec exec_stmt st (s : stmt) : unit =
  (match st.on_stmt with None -> () | Some f -> f st);
  match s.sdesc with
  | Sskip -> ()
  | Slocal (v, init) ->
      let value =
        match init with
        | Some e -> eval_expr st e
        | None -> zero_value st.prog.p_structs v.v_ty
      in
      Hashtbl.replace (current_frame st) v.v_id (ref value)
  | Sassign (lv, e) ->
      let v = eval_expr st e in
      (resolve_lval st lv).rset v
  | Sif (c, a, b) ->
      if truth (eval_expr st c) then exec_block st a else exec_block st b
  | Swhile (li, c, body) -> (
      let passes = ref 0 in
      let guard () =
        (* a guard re-evaluation is an atomic step of its own, so the
           interleaver can switch tasks even on empty-body loops *)
        (match st.on_stmt with None -> () | Some f -> f st);
        (match st.on_loop with None -> () | Some f -> f li.loop_id !passes st);
        incr passes;
        truth (eval_expr st c)
      in
      try
        while guard () do
          try exec_block st body with Cont -> ()
        done
      with Brk -> ())
  | Sbreak -> raise Brk
  | Scontinue -> raise Cont
  | Sreturn e -> raise (Ret (Option.map (eval_expr st) e))
  | Swait ->
      st.clock <- st.clock + 1;
      Option.iter (fun f -> f st) st.on_tick;
      if st.clock >= st.max_ticks then raise Stop_execution
  | Sassert e ->
      if not (truth (eval_expr st e)) then
        raise (Runtime_error (Assert_failure, s.sloc))
  | Sassume e ->
      (* trusted: in the concrete world we simply check it holds, treating
         a violated assumption as a stop rather than an error *)
      if not (truth (eval_expr st e)) then raise Stop_execution
  | Scall (ret, fname, args) -> (
      match Hashtbl.find_opt st.funs fname with
      | None -> raise (Runtime_error (Invalid_op, s.sloc))
      | Some fd ->
          (* evaluate arguments in target order *)
          let eval_arg (p : param) (a : arg) : int * value =
            match (p, a) with
            | Pval v, Aval e -> (v.v_id, eval_expr st e)
            | Pref v, Aref lv -> (v.v_id, Vref (resolve_lval st lv))
            | _ -> raise (Runtime_error (Invalid_op, s.sloc))
          in
          let bindings = List.map2 eval_arg fd.fd_params args in
          let frame = Hashtbl.create 8 in
          List.iter (fun (id, v) -> Hashtbl.replace frame id (ref v)) bindings;
          st.frames <- frame :: st.frames;
          let result =
            match exec_block st fd.fd_body with
            | () -> None
            | exception Ret v -> v
          in
          st.frames <- List.tl st.frames;
          (match (ret, result) with
          | Some dst, Some v ->
              Hashtbl.replace (current_frame st) dst.v_id (ref v)
          | Some dst, None ->
              Hashtbl.replace (current_frame st) dst.v_id
                (ref (zero_value st.prog.p_structs dst.v_ty))
          | None, _ -> ()))

and exec_block st (b : block) : unit = List.iter (exec_stmt st) b

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Outcome of a concrete run. *)
type outcome =
  | Finished           (** main returned or max ticks reached *)
  | Error of error_kind * Loc.t

(** Run the program concretely.  [input] supplies a value for each
    volatile read; [max_ticks] bounds the synchronous loop (the paper's
    "maximal execution time", Sect. 4).  [on_tick] is called after each
    clock tick with the interpreter state. *)
let run ?(max_ticks = 1000) ?on_tick ?on_loop
    ?(input = fun spec -> (spec.in_lo +. spec.in_hi) /. 2.0) (p : program) :
    outcome =
  let funs = fun_table p in
  let st =
    {
      prog = p;
      funs;
      store = Hashtbl.create 256;
      frames = [ Hashtbl.create 8 ];
      input;
      clock = 0;
      max_ticks;
      on_tick;
      on_loop;
      on_stmt = None;
    }
  in
  (* initialize globals *)
  List.iter
    (fun (v, init) ->
      Hashtbl.replace st.store v.v_id
        (ref (value_of_init p.p_structs v.v_ty init)))
    p.p_globals;
  match Hashtbl.find_opt funs p.p_main with
  | None -> Error (Invalid_op, Loc.dummy)
  | Some fd -> (
      try
        (try exec_block st fd.fd_body with Ret _ -> ());
        Finished
      with
      | Stop_execution -> Finished
      | Runtime_error (k, l) -> Error (k, l))

(* ------------------------------------------------------------------ *)
(* Multi-task interleaved execution                                     *)
(* ------------------------------------------------------------------ *)

(* Sequentially-consistent interleaving semantics for N tasks sharing
   the globals, with statement-level atomicity: expressions of the IR
   are pure, so one statement is one atomic step and every interleaving
   is a sequence of whole statements.  Each task runs as an effect-
   handler fiber that performs [Yield] at statement boundaries; a
   caller-supplied scheduler picks which live task executes the next
   statement.  This is the concrete ground truth the differential
   oracle of the interference fixpoint tests against. *)

type _ Effect.t += Yield : unit Effect.t

type fiber =
  | Not_started of (unit -> unit)
  | Suspended of (unit, fiber) Effect.Deep.continuation
  | Done

let run_interleaved ?(max_ticks = 1000)
    ?(input = fun spec -> (spec.in_lo +. spec.in_hi) /. 2.0)
    ~(schedule : live:int -> int) ~(tasks : string list) (p : program) :
    outcome =
  let store = Hashtbl.create 256 in
  List.iter
    (fun (v, init) ->
      Hashtbl.replace store v.v_id
        (ref (value_of_init p.p_structs v.v_ty init)))
    p.p_globals;
  (* one interpreter state per task: shared global store, private call
     frames and a private tick counter *)
  let funs = fun_table p in
  let mk_task name =
    match Hashtbl.find_opt funs name with
    | None -> invalid_arg ("run_interleaved: no such task: " ^ name)
    | Some fd ->
        let st =
          {
            prog = p;
            funs;
            store;
            frames = [ Hashtbl.create 8 ];
            input;
            clock = 0;
            max_ticks;
            on_tick = None;
            on_loop = None;
            on_stmt = Some (fun _ -> Effect.perform Yield);
          }
        in
        Not_started
          (fun () ->
            try exec_block st fd.fd_body with Ret _ | Stop_execution -> ())
  in
  let fibers = Array.of_list (List.map mk_task tasks) in
  let handler : (unit, fiber) Effect.Deep.handler =
    {
      retc = (fun () -> Done);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, fiber) Effect.Deep.continuation) -> Suspended k)
          | _ -> None);
    }
  in
  let live () =
    Array.to_list fibers
    |> List.mapi (fun i f -> (i, f))
    |> List.filter_map (fun (i, f) ->
           match f with Done -> None | _ -> Some i)
  in
  try
    let rec loop () =
      match live () with
      | [] -> Finished
      | alive ->
          let n = List.length alive in
          let pick = List.nth alive (abs (schedule ~live:n) mod n) in
          fibers.(pick) <-
            (match fibers.(pick) with
            | Not_started f -> Effect.Deep.match_with f () handler
            | Suspended k -> Effect.Deep.continue k ()
            | Done -> assert false);
          loop ()
    in
    loop ()
  with Runtime_error (k, l) -> Error (k, l)

(** Read a global scalar after/during a run (testing helper). *)
let clock st = st.clock

let read_global_scalar st (name : string) : value option =
  let v =
    List.find_opt (fun (v, _) -> v.v_name = name) st.prog.p_globals
  in
  Option.map (fun (v, _) -> !(find_storage st v)) v
