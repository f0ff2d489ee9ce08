(** Recursive-descent parser for the C subset (Sect. 5.1).

    The analyzed family uses a reduced subset of C99 with restricted
    declarators (no function pointers, no multi-dimensional declarator
    tricks), which a hand-written predictive parser handles comfortably.
    Unsupported constructs are rejected with an error message, as the paper
    prescribes ("Unsupported constructs are rejected at this point"). *)

exception Error of string * Loc.t

(* Tokens are lexed as the parser asks for them, so they die young
   instead of all living until the unit is parsed: [ahead] holds the
   current token and the ones looked ahead at, [ahead.(first)] first. *)
type state = {
  lex : Lexer.state;
  ahead : Token.spanned array;
  mutable first : int;
  mutable count : int;  (** tokens in [ahead] *)
  mutable typedefs : (string, unit) Hashtbl.t;
}

let window = 4

let make lex =
  {
    lex;
    ahead = Array.make window { Token.tok = Token.EOF; tloc = Loc.dummy };
    first = 0;
    count = 0;
    typedefs = Hashtbl.create 16;
  }

(* the [k]-th token from the current one; past the end, the EOF token *)
let peek_tok st k =
  while st.count <= k do
    let t =
      if st.count > 0
         && st.ahead.((st.first + st.count - 1) mod window).Token.tok = Token.EOF
      then st.ahead.((st.first + st.count - 1) mod window)
      else Lexer.next_token st.lex
    in
    st.ahead.((st.first + st.count) mod window) <- t;
    st.count <- st.count + 1
  done;
  st.ahead.((st.first + k) mod window)

let cur st = (peek_tok st 0).Token.tok
let cur_loc st = (peek_tok st 0).Token.tloc
let lookahead st k = (peek_tok st k).Token.tok

(* the EOF token is the last: advancing stays on it *)
let advance st =
  if cur st <> Token.EOF then begin
    st.first <- (st.first + 1) mod window;
    st.count <- st.count - 1
  end

let error st msg = raise (Error (msg, cur_loc st))

let expect st tok =
  if cur st = tok then advance st
  else
    error st
      (Fmt.str "expected %a but found %a" Token.pp tok Token.pp (cur st))

let expect_ident st =
  match cur st with
  | Token.IDENT s ->
      advance st;
      s
  | t -> error st (Fmt.str "expected identifier, found %a" Token.pp t)

let is_typedef_name st s = Hashtbl.mem st.typedefs s

(* A token sequence starts a type if it is a type keyword, a known typedef
   name, or a qualifier. *)
let starts_type st =
  match cur st with
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_SHORT | Token.KW_INT
  | Token.KW_LONG | Token.KW_FLOAT | Token.KW_DOUBLE | Token.KW_SIGNED
  | Token.KW_UNSIGNED | Token.KW_BOOL | Token.KW_STRUCT | Token.KW_ENUM
  | Token.KW_CONST | Token.KW_VOLATILE | Token.KW_STATIC | Token.KW_EXTERN
  | Token.KW_TYPEDEF ->
      true
  | Token.IDENT s -> is_typedef_name st s
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Type parsing                                                        *)
(* ------------------------------------------------------------------ *)

type specs = {
  mutable sp_storage : Ast.storage;
  mutable sp_volatile : bool;
  mutable sp_const : bool;
  mutable sp_typedef : bool;
}

(* Parse declaration specifiers: storage class, qualifiers and the base
   type.  Returns the base type expression and the collected specifiers. *)
let parse_specs st : Ast.type_expr * specs =
  let sp =
    { sp_storage = Ast.Sto_none; sp_volatile = false; sp_const = false;
      sp_typedef = false }
  in
  (* collect int-ish keywords to resolve multi-word types *)
  let signed = ref None in
  let rank = ref None in
  let base : Ast.type_expr option ref = ref None in
  let set_base b =
    match !base with
    | None -> base := Some b
    | Some _ -> error st "conflicting type specifiers"
  in
  let continue_ = ref true in
  while !continue_ do
    (match cur st with
    | Token.KW_STATIC -> sp.sp_storage <- Ast.Sto_static; advance st
    | Token.KW_EXTERN -> sp.sp_storage <- Ast.Sto_extern; advance st
    | Token.KW_TYPEDEF -> sp.sp_typedef <- true; advance st
    | Token.KW_CONST -> sp.sp_const <- true; advance st
    | Token.KW_VOLATILE -> sp.sp_volatile <- true; advance st
    | Token.KW_VOID -> set_base Ast.Tvoid_te; advance st
    | Token.KW_BOOL -> rank := Some Ctypes.Bool; advance st
    | Token.KW_CHAR -> rank := Some Ctypes.Char; advance st
    | Token.KW_SHORT -> rank := Some Ctypes.Short; advance st
    | Token.KW_INT ->
        (if !rank = None then rank := Some Ctypes.Int);
        advance st
    | Token.KW_LONG -> rank := Some Ctypes.Long; advance st
    | Token.KW_FLOAT -> set_base (Ast.Tbase (Ctypes.Tfloat Ctypes.Fsingle)); advance st
    | Token.KW_DOUBLE -> set_base (Ast.Tbase (Ctypes.Tfloat Ctypes.Fdouble)); advance st
    | Token.KW_SIGNED -> signed := Some Ctypes.Signed; advance st
    | Token.KW_UNSIGNED -> signed := Some Ctypes.Unsigned; advance st
    | Token.KW_STRUCT ->
        advance st;
        let tag = expect_ident st in
        set_base (Ast.Tstruct_te tag)
    | Token.KW_ENUM ->
        (* enumeration types, including the booleans, are considered to
           be integers (Sect. 6.1.1) *)
        advance st;
        (match cur st with
        | Token.IDENT _ -> advance st
        | _ -> ());
        set_base (Ast.Tbase (Ctypes.Tint (Ctypes.Int, Ctypes.Signed)))
    | Token.IDENT s
      when is_typedef_name st s && !base = None && !rank = None && !signed = None ->
        advance st;
        set_base (Ast.Tname s)
    | _ -> continue_ := false);
    if !base <> None && (!rank <> None || !signed <> None) then
      error st "conflicting type specifiers"
  done;
  let ty =
    match (!base, !rank, !signed) with
    | Some b, None, None -> b
    | None, Some r, s ->
        let sign =
          match s with
          | Some s -> s
          | None -> if r = Ctypes.Bool then Ctypes.Unsigned else Ctypes.Signed
        in
        Ast.Tbase (Ctypes.Tint (r, sign))
    | None, None, Some s -> Ast.Tbase (Ctypes.Tint (Ctypes.Int, s))
    | None, None, None -> error st "expected type specifier"
    | Some _, _, _ -> error st "conflicting type specifiers"
  in
  (ty, sp)

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                   *)
(* ------------------------------------------------------------------ *)

let mk_expr eloc edesc = { Ast.edesc; eloc }

let rec parse_expr st : Ast.expr = parse_comma st

and parse_comma st =
  let e = parse_assign st in
  match cur st with
  | Token.COMMA ->
      let l = cur_loc st in
      advance st;
      let e2 = parse_comma st in
      mk_expr l (Ast.Ecomma (e, e2))
  | _ -> e

and parse_assign st =
  let lhs = parse_cond st in
  let l = cur_loc st in
  let mk_op op =
    advance st;
    let rhs = parse_assign st in
    mk_expr l (Ast.Eassign_op (op, lhs, rhs))
  in
  match cur st with
  | Token.ASSIGN ->
      advance st;
      let rhs = parse_assign st in
      mk_expr l (Ast.Eassign (lhs, rhs))
  | Token.PLUSEQ -> mk_op Ast.Add
  | Token.MINUSEQ -> mk_op Ast.Sub
  | Token.STAREQ -> mk_op Ast.Mul
  | Token.SLASHEQ -> mk_op Ast.Div
  | Token.PERCENTEQ -> mk_op Ast.Mod
  | Token.AMPEQ -> mk_op Ast.Band
  | Token.BAREQ -> mk_op Ast.Bor
  | Token.CARETEQ -> mk_op Ast.Bxor
  | Token.LSHIFTEQ -> mk_op Ast.Shl
  | Token.RSHIFTEQ -> mk_op Ast.Shr
  | _ -> lhs

and parse_cond st =
  let c = parse_binary st 0 in
  match cur st with
  | Token.QUESTION ->
      let l = cur_loc st in
      advance st;
      let a = parse_assign st in
      expect st Token.COLON;
      let b = parse_cond st in
      mk_expr l (Ast.Econd (c, a, b))
  | _ -> c

(* binary operators by increasing precedence level *)
and binop_of_token = function
  | Token.BARBAR -> Some (Ast.Lor, 1)
  | Token.ANDAND -> Some (Ast.Land, 2)
  | Token.BAR -> Some (Ast.Bor, 3)
  | Token.CARET -> Some (Ast.Bxor, 4)
  | Token.AMP -> Some (Ast.Band, 5)
  | Token.EQEQ -> Some (Ast.Eq, 6)
  | Token.NEQ -> Some (Ast.Ne, 6)
  | Token.LT -> Some (Ast.Lt, 7)
  | Token.GT -> Some (Ast.Gt, 7)
  | Token.LE -> Some (Ast.Le, 7)
  | Token.GE -> Some (Ast.Ge, 7)
  | Token.LSHIFT -> Some (Ast.Shl, 8)
  | Token.RSHIFT -> Some (Ast.Shr, 8)
  | Token.PLUS -> Some (Ast.Add, 9)
  | Token.MINUS -> Some (Ast.Sub, 9)
  | Token.STAR -> Some (Ast.Mul, 10)
  | Token.SLASH -> Some (Ast.Div, 10)
  | Token.PERCENT -> Some (Ast.Mod, 10)
  | _ -> None

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match binop_of_token (cur st) with
    | Some (op, prec) when prec >= min_prec ->
        let l = cur_loc st in
        advance st;
        let rhs = parse_binary st (prec + 1) in
        lhs := mk_expr l (Ast.Ebinop (op, !lhs, rhs))
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  let l = cur_loc st in
  match cur st with
  | Token.MINUS ->
      advance st;
      mk_expr l (Ast.Eunop (Ast.Neg, parse_unary st))
  | Token.PLUS ->
      advance st;
      parse_unary st
  | Token.BANG ->
      advance st;
      mk_expr l (Ast.Eunop (Ast.Lnot, parse_unary st))
  | Token.TILDE ->
      advance st;
      mk_expr l (Ast.Eunop (Ast.Bnot, parse_unary st))
  | Token.STAR ->
      advance st;
      mk_expr l (Ast.Ederef (parse_unary st))
  | Token.AMP ->
      advance st;
      mk_expr l (Ast.Eaddr (parse_unary st))
  | Token.PLUSPLUS ->
      advance st;
      mk_expr l (Ast.Epreincr (true, parse_unary st))
  | Token.MINUSMINUS ->
      advance st;
      mk_expr l (Ast.Epreincr (false, parse_unary st))
  | Token.KW_SIZEOF ->
      advance st;
      expect st Token.LPAREN;
      let te = parse_type_name st in
      expect st Token.RPAREN;
      mk_expr l (Ast.Esizeof te)
  | Token.LPAREN when starts_type_name st 1 ->
      advance st;
      let te = parse_type_name st in
      expect st Token.RPAREN;
      mk_expr l (Ast.Ecast (te, parse_unary st))
  | _ -> parse_postfix st

and starts_type_name st k =
  match lookahead st k with
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_SHORT | Token.KW_INT
  | Token.KW_LONG | Token.KW_FLOAT | Token.KW_DOUBLE | Token.KW_SIGNED
  | Token.KW_UNSIGNED | Token.KW_BOOL | Token.KW_STRUCT | Token.KW_CONST ->
      true
  | Token.IDENT s -> is_typedef_name st s
  | _ -> false

(* a type name in a cast or sizeof: specs + optional stars *)
and parse_type_name st =
  let ty, _sp = parse_specs st in
  let ty = ref ty in
  while cur st = Token.STAR do
    advance st;
    ty := Ast.Tptr_te !ty
  done;
  !ty

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    let l = cur_loc st in
    match cur st with
    | Token.LBRACKET ->
        advance st;
        let i = parse_expr st in
        expect st Token.RBRACKET;
        e := mk_expr l (Ast.Eindex (!e, i))
    | Token.DOT ->
        advance st;
        let f = expect_ident st in
        e := mk_expr l (Ast.Efield (!e, f))
    | Token.ARROW ->
        advance st;
        let f = expect_ident st in
        e := mk_expr l (Ast.Earrow (!e, f))
    | Token.PLUSPLUS ->
        advance st;
        e := mk_expr l (Ast.Epostincr (true, !e))
    | Token.MINUSMINUS ->
        advance st;
        e := mk_expr l (Ast.Epostincr (false, !e))
    | _ -> continue_ := false
  done;
  !e

and parse_primary st =
  let l = cur_loc st in
  match cur st with
  | Token.INT_LIT (n, r, s) ->
      advance st;
      mk_expr l (Ast.Eint (n, r, s))
  | Token.FLOAT_LIT (f, k) ->
      advance st;
      mk_expr l (Ast.Efloat (f, k))
  | Token.CHAR_LIT c ->
      advance st;
      mk_expr l (Ast.Eint (c, Ctypes.Char, Ctypes.Signed))
  | Token.IDENT name -> (
      advance st;
      match cur st with
      | Token.LPAREN ->
          advance st;
          let args = ref [] in
          if cur st <> Token.RPAREN then begin
            args := [ parse_assign st ];
            while cur st = Token.COMMA do
              advance st;
              args := parse_assign st :: !args
            done
          end;
          expect st Token.RPAREN;
          mk_expr l (Ast.Ecall (name, List.rev !args))
      | _ -> mk_expr l (Ast.Evar name))
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | t -> error st (Fmt.str "expected expression, found %a" Token.pp t)

(* ------------------------------------------------------------------ *)
(* Declarators                                                         *)
(* ------------------------------------------------------------------ *)

(* Parse a declarator given the base type: stars, identifier, array
   suffixes.  Returns (name, type). *)
let rec parse_declarator st (base : Ast.type_expr) : string * Ast.type_expr =
  if cur st = Token.STAR then begin
    advance st;
    (* qualifiers after * are accepted and ignored *)
    while cur st = Token.KW_CONST || cur st = Token.KW_VOLATILE do advance st done;
    parse_declarator st (Ast.Tptr_te base)
  end
  else
    let name = expect_ident st in
    let ty = ref base in
    let sizes = ref [] in
    while cur st = Token.LBRACKET do
      advance st;
      let sz = if cur st = Token.RBRACKET then None else Some (parse_expr st) in
      expect st Token.RBRACKET;
      sizes := sz :: !sizes
    done;
    (* innermost size is the last suffix: build from inside out *)
    List.iter (fun sz -> ty := Ast.Tarray_te (!ty, sz)) !sizes;
    (name, !ty)

(* ------------------------------------------------------------------ *)
(* Initializers                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_init st : Ast.init =
  if cur st = Token.LBRACE then begin
    advance st;
    let items = ref [] in
    if cur st <> Token.RBRACE then begin
      items := [ parse_init st ];
      while cur st = Token.COMMA do
        advance st;
        if cur st <> Token.RBRACE then items := parse_init st :: !items
      done
    end;
    expect st Token.RBRACE;
    Ast.Init_list (List.rev !items)
  end
  else Ast.Init_expr (parse_assign st)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let mk_stmt sloc sdesc = { Ast.sdesc; sloc }

let rec parse_stmt st : Ast.stmt =
  let l = cur_loc st in
  match cur st with
  | Token.SEMI ->
      advance st;
      mk_stmt l Ast.Sskip
  | Token.LBRACE -> mk_stmt l (Ast.Sblock (parse_block st))
  | Token.KW_IF ->
      advance st;
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      let then_ = parse_stmt st in
      let else_ =
        if cur st = Token.KW_ELSE then begin
          advance st;
          Some (parse_stmt st)
        end
        else None
      in
      mk_stmt l (Ast.Sif (c, then_, else_))
  | Token.KW_WHILE ->
      advance st;
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      let body = parse_stmt st in
      mk_stmt l (Ast.Swhile (c, body))
  | Token.KW_DO ->
      advance st;
      let body = parse_stmt st in
      expect st Token.KW_WHILE;
      expect st Token.LPAREN;
      let c = parse_expr st in
      expect st Token.RPAREN;
      expect st Token.SEMI;
      mk_stmt l (Ast.Sdowhile (body, c))
  | Token.KW_FOR ->
      advance st;
      expect st Token.LPAREN;
      let init = if cur st = Token.SEMI then None else Some (parse_expr st) in
      expect st Token.SEMI;
      let cond = if cur st = Token.SEMI then None else Some (parse_expr st) in
      expect st Token.SEMI;
      let step = if cur st = Token.RPAREN then None else Some (parse_expr st) in
      expect st Token.RPAREN;
      let body = parse_stmt st in
      mk_stmt l (Ast.Sfor (init, cond, step, body))
  | Token.KW_RETURN ->
      advance st;
      let e = if cur st = Token.SEMI then None else Some (parse_expr st) in
      expect st Token.SEMI;
      mk_stmt l (Ast.Sreturn e)
  | Token.KW_BREAK ->
      advance st;
      expect st Token.SEMI;
      mk_stmt l Ast.Sbreak
  | Token.KW_CONTINUE ->
      advance st;
      expect st Token.SEMI;
      mk_stmt l Ast.Scontinue
  | Token.KW_SWITCH ->
      advance st;
      expect st Token.LPAREN;
      let e = parse_expr st in
      expect st Token.RPAREN;
      expect st Token.LBRACE;
      let cases = ref [] in
      while cur st <> Token.RBRACE do
        let cl = cur_loc st in
        let labels = ref [] in
        let more = ref true in
        while !more do
          match cur st with
          | Token.KW_CASE ->
              advance st;
              let e = parse_cond st in
              expect st Token.COLON;
              labels := Some e :: !labels
          | Token.KW_DEFAULT ->
              advance st;
              expect st Token.COLON;
              labels := None :: !labels
          | _ -> more := false
        done;
        if !labels = [] then error st "expected case or default label";
        let body = ref [] in
        let stop = ref false in
        while not !stop do
          match cur st with
          | Token.KW_CASE | Token.KW_DEFAULT | Token.RBRACE -> stop := true
          | Token.KW_BREAK ->
              advance st;
              expect st Token.SEMI;
              stop := true
          | _ -> body := parse_stmt st :: !body
        done;
        cases :=
          { Ast.case_labels = List.rev !labels;
            case_body = List.rev !body; case_loc = cl }
          :: !cases
      done;
      expect st Token.RBRACE;
      mk_stmt l (Ast.Sswitch (e, List.rev !cases))
  | _ when starts_type st ->
      let d = parse_local_decl st in
      mk_stmt l (Ast.Sdecl d)
  | _ ->
      let e = parse_expr st in
      expect st Token.SEMI;
      mk_stmt l (Ast.Sexpr e)

and parse_block st : Ast.block =
  expect st Token.LBRACE;
  let stmts = ref [] in
  while cur st <> Token.RBRACE do
    stmts := parse_stmt st :: !stmts
  done;
  expect st Token.RBRACE;
  List.rev !stmts

and parse_local_decl st : Ast.decl =
  let l = cur_loc st in
  let base, sp = parse_specs st in
  if sp.sp_typedef then error st "typedef not allowed inside functions";
  let name, ty = parse_declarator st base in
  let init =
    if cur st = Token.ASSIGN then begin
      advance st;
      Some (parse_init st)
    end
    else None
  in
  expect st Token.SEMI;
  {
    Ast.d_name = name; d_type = ty; d_storage = sp.sp_storage;
    d_volatile = sp.sp_volatile; d_const = sp.sp_const; d_init = init;
    d_loc = l;
  }

(* ------------------------------------------------------------------ *)
(* Globals                                                             *)
(* ------------------------------------------------------------------ *)

let parse_struct_def st l : Ast.global =
  (* at KW_STRUCT with '{' after tag *)
  advance st (* struct *);
  let tag = expect_ident st in
  expect st Token.LBRACE;
  let fields = ref [] in
  while cur st <> Token.RBRACE do
    let base, _sp = parse_specs st in
    let name, ty = parse_declarator st base in
    fields := (name, ty) :: !fields;
    while cur st = Token.COMMA do
      advance st;
      let name, ty = parse_declarator st base in
      fields := (name, ty) :: !fields
    done;
    expect st Token.SEMI
  done;
  expect st Token.RBRACE;
  expect st Token.SEMI;
  Ast.Gstruct (tag, List.rev !fields, l)

let parse_enum_def st l : Ast.global =
  advance st (* enum *);
  let tag = match cur st with
    | Token.IDENT s -> advance st; Some s
    | _ -> None
  in
  expect st Token.LBRACE;
  let items = ref [] in
  let stop = ref false in
  while not !stop do
    let name = expect_ident st in
    let v =
      if cur st = Token.ASSIGN then begin
        advance st;
        Some (parse_cond st)
      end
      else None
    in
    items := (name, v) :: !items;
    if cur st = Token.COMMA then begin
      advance st;
      if cur st = Token.RBRACE then stop := true
    end
    else stop := true
  done;
  expect st Token.RBRACE;
  expect st Token.SEMI;
  Ast.Genum (tag, List.rev !items, l)

let parse_global st : Ast.global =
  let l = cur_loc st in
  if cur st = Token.KW_STRUCT && lookahead st 2 = Token.LBRACE then
    parse_struct_def st l
  else if
    cur st = Token.KW_ENUM
    && (lookahead st 1 = Token.LBRACE || lookahead st 2 = Token.LBRACE)
  then parse_enum_def st l
  else begin
    let base, sp = parse_specs st in
    if sp.sp_typedef then begin
      let name, ty = parse_declarator st base in
      expect st Token.SEMI;
      Hashtbl.replace st.typedefs name ();
      Ast.Gtypedef (name, ty, l)
    end
    else if cur st = Token.SEMI then begin
      (* bare "struct s;" forward declaration: ignore *)
      advance st;
      Ast.Gtypedef ("<fwd>", base, l)
    end
    else
      let name, ty = parse_declarator st base in
      if cur st = Token.LPAREN then begin
        (* function definition or prototype *)
        advance st;
        let params = ref [] in
        if cur st = Token.KW_VOID && lookahead st 1 = Token.RPAREN then
          advance st
        else if cur st <> Token.RPAREN then begin
          let parse_param () =
            let pbase, _psp = parse_specs st in
            let pname, pty = parse_declarator st pbase in
            (pname, pty)
          in
          params := [ parse_param () ];
          while cur st = Token.COMMA do
            advance st;
            params := parse_param () :: !params
          done
        end;
        expect st Token.RPAREN;
        let params = List.rev !params in
        if cur st = Token.SEMI then begin
          advance st;
          Ast.Gfundecl (name, ty, params, l)
        end
        else
          let body = parse_block st in
          Ast.Gfun
            { Ast.f_name = name; f_ret = ty; f_params = params; f_body = body;
              f_loc = l }
      end
      else begin
        let init =
          if cur st = Token.ASSIGN then begin
            advance st;
            Some (parse_init st)
          end
          else None
        in
        expect st Token.SEMI;
        Ast.Gdecl
          {
            Ast.d_name = name; d_type = ty; d_storage = sp.sp_storage;
            d_volatile = sp.sp_volatile; d_const = sp.sp_const;
            d_init = init; d_loc = l;
          }
      end
  end

(* [parse st] over the tokens of [src]; a lexical error anywhere in
   [src] wins over a parse error before it, as when the whole source was
   lexed first *)
let with_tokens ~file src (parse : state -> 'a) : 'a =
  let st = make (Lexer.make_state ~file src) in
  match parse st with
  | r -> r
  | exception (Lexer.Error _ as e) -> raise e
  | exception e ->
      while cur st <> Token.EOF do
        advance st
      done;
      raise e

(** Parse a whole translation unit from tokens. *)
let parse_unit ~file st : Ast.unit_ =
  let globals = ref [] in
  while cur st <> Token.EOF do
    globals := parse_global st :: !globals
  done;
  { Ast.u_file = file; u_globals = List.rev !globals }

(** Convenience: preprocess, lex and parse a source string. *)
let parse_string ?env ~file src : Ast.unit_ =
  let pp = Preproc.run ?env ~file src in
  with_tokens ~file pp (parse_unit ~file)

(** Parse a single expression (used by tests and the slicer CLI). *)
let parse_expr_string src : Ast.expr =
  with_tokens ~file:"<expr>" src (fun st ->
      let e = parse_expr st in
      if cur st <> Token.EOF then error st "trailing tokens after expression";
      e)
