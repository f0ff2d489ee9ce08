(** Hand-written lexer for the C subset.

    The lexer consumes a whole source string (normally the output of
    {!Preproc}) and produces a list of located tokens.  It understands
    [#line]-style markers emitted by the preprocessor so that locations
    refer to the original files. *)

exception Error of string * Loc.t

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable file : string;
}

let make_state ~file src = { src; pos = 0; line = 1; col = 1; file }

let loc st = Loc.make ~file:st.file ~line:st.line ~col:st.col

let error st msg = raise (Error (msg, loc st))

let at_end st = st.pos >= String.length st.src

let peek st = if at_end st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  if not (at_end st) then begin
    (if st.src.[st.pos] = '\n' then begin
       st.line <- st.line + 1;
       st.col <- 1
     end
     else st.col <- st.col + 1);
    st.pos <- st.pos + 1
  end

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* Skip whitespace and comments; handle line markers "# <n> \"file\"". *)
let rec skip_trivia st =
  match peek st with
  | ' ' | '\t' | '\r' ->
      st.pos <- st.pos + 1;
      st.col <- st.col + 1;
      skip_trivia st
  | '\n' ->
      st.pos <- st.pos + 1;
      st.line <- st.line + 1;
      st.col <- 1;
      skip_trivia st
  | '/' when peek2 st = '/' ->
      while (not (at_end st)) && peek st <> '\n' do advance st done;
      skip_trivia st
  | '/' when peek2 st = '*' ->
      advance st; advance st;
      let rec loop () =
        if at_end st then error st "unterminated comment"
        else if peek st = '*' && peek2 st = '/' then begin advance st; advance st end
        else begin advance st; loop () end
      in
      loop ();
      skip_trivia st
  | '#' ->
      (* line marker: "# <num> "file"" or "#line <num> "file"" *)
      let buf = Buffer.create 32 in
      while (not (at_end st)) && peek st <> '\n' do
        Buffer.add_char buf (peek st);
        advance st
      done;
      let s = Buffer.contents buf in
      (* "# n \"file\"" means: the NEXT line is line n of file; the
         newline ending the marker line will bump the counter to n *)
      (try
         Scanf.sscanf s "#%_[ line] %d %S" (fun n f ->
             st.line <- n - 1;
             st.file <- f)
       with _ -> (
         try Scanf.sscanf s "# %d" (fun n -> st.line <- n - 1) with _ -> ()));
      skip_trivia st
  | _ -> ()

(* keyword lookup by hashing: every identifier of the source goes
   through it *)
let keywords : (string, Token.t) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun (k, t) -> Hashtbl.replace h k t) Token.keyword_table;
  h

(* an identifier holds no newline: [advance] over it only moves the
   column *)
let lex_ident st =
  let start = st.pos and n = String.length st.src in
  let i = ref start in
  while !i < n && is_alnum (String.unsafe_get st.src !i) do incr i done;
  st.pos <- !i;
  st.col <- st.col + (!i - start);
  String.sub st.src start (!i - start)

(* Lex an integer or float literal. *)
let lex_number st =
  let start = st.pos in
  let is_hexlit = peek st = '0' && (peek2 st = 'x' || peek2 st = 'X') in
  if is_hexlit then begin
    advance st; advance st;
    while is_hex (peek st) do advance st done
  end
  else begin
    while is_digit (peek st) do advance st done;
    if peek st = '.' then begin
      advance st;
      while is_digit (peek st) do advance st done
    end;
    if peek st = 'e' || peek st = 'E' then begin
      advance st;
      if peek st = '+' || peek st = '-' then advance st;
      while is_digit (peek st) do advance st done
    end
  end;
  let body = String.sub st.src start (st.pos - start) in
  (* suffixes *)
  let suffix_start = st.pos in
  while
    match peek st with
    | 'u' | 'U' | 'l' | 'L' | 'f' | 'F' -> true
    | _ -> false
  do advance st done;
  let suffix = String.lowercase_ascii
      (String.sub st.src suffix_start (st.pos - suffix_start))
  in
  let is_float_body =
    String.contains body '.'
    || ((not is_hexlit) && (String.contains body 'e' || String.contains body 'E'))
  in
  if is_float_body || suffix = "f" then
    let v =
      try float_of_string body
      with _ -> error st ("invalid floating-point literal " ^ body)
    in
    let kind = if String.contains suffix 'f' then Ctypes.Fsingle else Ctypes.Fdouble in
    (* single-precision literals are rounded to binary32 at lexing time,
       matching the compiler of the analyzed family *)
    let v =
      if kind = Ctypes.Fsingle then Int32.float_of_bits (Int32.bits_of_float v)
      else v
    in
    Token.FLOAT_LIT (v, kind)
  else
    let v =
      try int_of_string body
      with _ -> error st ("invalid integer literal " ^ body)
    in
    let unsigned = String.contains suffix 'u' in
    let long = String.contains suffix 'l' in
    let rank = if long then Ctypes.Long else Ctypes.Int in
    let sign = if unsigned then Ctypes.Unsigned else Ctypes.Signed in
    Token.INT_LIT (v, rank, sign)

let lex_char_lit st =
  advance st (* opening quote *);
  let c =
    match peek st with
    | '\\' ->
        advance st;
        let c =
          match peek st with
          | 'n' -> 10 | 't' -> 9 | 'r' -> 13 | '0' -> 0
          | '\\' -> 92 | '\'' -> 39 | '"' -> 34
          | c -> Char.code c
        in
        advance st;
        c
    | c ->
        advance st;
        Char.code c
  in
  if peek st <> '\'' then error st "unterminated character literal";
  advance st;
  Token.CHAR_LIT c

let lex_string_lit st =
  advance st;
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | '"' -> advance st
    | '\000' -> error st "unterminated string literal"
    | '\\' ->
        advance st;
        (match peek st with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | c -> Buffer.add_char buf c);
        advance st;
        loop ()
    | c ->
        Buffer.add_char buf c;
        advance st;
        loop ()
  in
  loop ();
  Token.STRING_LIT (Buffer.contents buf)

(* a token of [n] characters on one line, starting at [tloc] *)
let span st tloc n tok =
  st.pos <- st.pos + n;
  st.col <- st.col + n;
  { Token.tok; tloc }

let next_token st : Token.spanned =
  skip_trivia st;
  let tloc = loc st in
  match peek st with
  | '\000' -> span st tloc 0 Token.EOF
  | c when is_digit c -> { Token.tok = lex_number st; tloc }
  | '.' when is_digit (peek2 st) -> { Token.tok = lex_number st; tloc }
  | c when is_alpha c ->
      let id = lex_ident st in
      let tok =
        match Hashtbl.find_opt keywords id with
        | Some kw -> kw
        | None -> Token.IDENT id
      in
      { Token.tok; tloc }
  | '\'' -> { Token.tok = lex_char_lit st; tloc }
  | '"' -> { Token.tok = lex_string_lit st; tloc }
  | '(' -> span st tloc 1 Token.LPAREN
  | ')' -> span st tloc 1 Token.RPAREN
  | '{' -> span st tloc 1 Token.LBRACE
  | '}' -> span st tloc 1 Token.RBRACE
  | '[' -> span st tloc 1 Token.LBRACKET
  | ']' -> span st tloc 1 Token.RBRACKET
  | ';' -> span st tloc 1 Token.SEMI
  | ',' -> span st tloc 1 Token.COMMA
  | ':' -> span st tloc 1 Token.COLON
  | '?' -> span st tloc 1 Token.QUESTION
  | '.' -> span st tloc 1 Token.DOT
  | '~' -> span st tloc 1 Token.TILDE
  | '+' -> (
      match peek2 st with
      | '+' -> span st tloc 2 Token.PLUSPLUS
      | '=' -> span st tloc 2 Token.PLUSEQ
      | _ -> span st tloc 1 Token.PLUS)
  | '-' -> (
      match peek2 st with
      | '-' -> span st tloc 2 Token.MINUSMINUS
      | '=' -> span st tloc 2 Token.MINUSEQ
      | '>' -> span st tloc 2 Token.ARROW
      | _ -> span st tloc 1 Token.MINUS)
  | '*' ->
      if peek2 st = '=' then span st tloc 2 Token.STAREQ
      else span st tloc 1 Token.STAR
  | '/' ->
      if peek2 st = '=' then span st tloc 2 Token.SLASHEQ
      else span st tloc 1 Token.SLASH
  | '%' ->
      if peek2 st = '=' then span st tloc 2 Token.PERCENTEQ
      else span st tloc 1 Token.PERCENT
  | '^' ->
      if peek2 st = '=' then span st tloc 2 Token.CARETEQ
      else span st tloc 1 Token.CARET
  | '!' ->
      if peek2 st = '=' then span st tloc 2 Token.NEQ
      else span st tloc 1 Token.BANG
  | '=' ->
      if peek2 st = '=' then span st tloc 2 Token.EQEQ
      else span st tloc 1 Token.ASSIGN
  | '&' -> (
      match peek2 st with
      | '&' -> span st tloc 2 Token.ANDAND
      | '=' -> span st tloc 2 Token.AMPEQ
      | _ -> span st tloc 1 Token.AMP)
  | '|' -> (
      match peek2 st with
      | '|' -> span st tloc 2 Token.BARBAR
      | '=' -> span st tloc 2 Token.BAREQ
      | _ -> span st tloc 1 Token.BAR)
  | '<' -> (
      match peek2 st with
      | '=' -> span st tloc 2 Token.LE
      | '<' ->
          if st.pos + 2 < String.length st.src && st.src.[st.pos + 2] = '='
          then span st tloc 3 Token.LSHIFTEQ
          else span st tloc 2 Token.LSHIFT
      | _ -> span st tloc 1 Token.LT)
  | '>' -> (
      match peek2 st with
      | '=' -> span st tloc 2 Token.GE
      | '>' ->
          if st.pos + 2 < String.length st.src && st.src.[st.pos + 2] = '='
          then span st tloc 3 Token.RSHIFTEQ
          else span st tloc 2 Token.RSHIFT
      | _ -> span st tloc 1 Token.GT)
  | c -> error st (Fmt.str "unexpected character %C" c)

(** Tokenize a whole source string. *)
let tokenize ~file src : Token.spanned list =
  let st = make_state ~file src in
  let rec loop acc =
    let t = next_token st in
    if t.Token.tok = Token.EOF then List.rev (t :: acc) else loop (t :: acc)
  in
  loop []
