(** A standard C preprocessor for the analyzed family (Sect. 5.1: "the
    source code is first preprocessed using a standard C preprocessor").

    Supports: [#include "file"], object-like and function-like [#define],
    [#undef], [#ifdef]/[#ifndef]/[#if]/[#elif]/[#else]/[#endif] with integer
    constant expressions and [defined], and passes [#line] markers through so
    the lexer reports original source locations.

    The output is a single flattened source string with line markers. *)

exception Error of string * Loc.t

type macro =
  | Object of string                    (** replacement text *)
  | Function of string list * string    (** parameters, replacement text *)

type env = {
  mutable macros : (string * macro) list;
  include_paths : string list;
  read_file : string -> string option;
      (** file loader; abstracted for tests and for in-memory "files" *)
}

let make_env ?(include_paths = []) ?(read_file = fun _ -> None) () =
  {
    macros = [ ("__ASTREE__", Object "1") ];
    include_paths;
    read_file;
  }

let define env name macro =
  env.macros <- (name, macro) :: List.remove_assoc name env.macros

let undefine env name = env.macros <- List.remove_assoc name env.macros

let is_defined env name = List.mem_assoc name env.macros

(* ------------------------------------------------------------------ *)
(* Word-level scanning helpers                                         *)
(* ------------------------------------------------------------------ *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let is_ident_start c = is_ident_char c && not (c >= '0' && c <= '9')

(* Does [sub] occur in [s]? *)
let occurs (sub : string) (s : string) : bool =
  let n = String.length s and m = String.length sub in
  let rec at i j = j = m || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec from i = i + m <= n && (at i 0 || from (i + 1)) in
  from 0

(* A line in which no macro name occurs is copied as it is, without
   splitting it into identifiers. *)
let rec expand_line env ~loc ~active (line : string) : string =
  if not (List.exists (fun (name, _) -> occurs name line) env.macros) then
    line
  else expand_macros env ~loc ~active line

(* Split a line into alternating non-identifier / identifier chunks and
   expand macros, with a recursion guard on currently-expanding names. *)
and expand_macros env ~loc ~active (line : string) : string =
  let n = String.length line in
  let buf = Buffer.create (n + 16) in
  let i = ref 0 in
  let in_string = ref false in
  let in_char = ref false in
  while !i < n do
    let c = line.[!i] in
    if !in_string then begin
      Buffer.add_char buf c;
      if c = '\\' && !i + 1 < n then begin
        Buffer.add_char buf line.[!i + 1];
        incr i
      end
      else if c = '"' then in_string := false;
      incr i
    end
    else if !in_char then begin
      Buffer.add_char buf c;
      if c = '\\' && !i + 1 < n then begin
        Buffer.add_char buf line.[!i + 1];
        incr i
      end
      else if c = '\'' then in_char := false;
      incr i
    end
    else if c = '"' then begin
      in_string := true;
      Buffer.add_char buf c;
      incr i
    end
    else if c = '\'' then begin
      in_char := true;
      Buffer.add_char buf c;
      incr i
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char line.[!i] do incr i done;
      let id = String.sub line start (!i - start) in
      if List.mem id active then Buffer.add_string buf id
      else
        match List.assoc_opt id env.macros with
        | Some (Object body) ->
            Buffer.add_string buf
              (expand_line env ~loc ~active:(id :: active) body)
        | Some (Function (params, body)) ->
            (* require '(' possibly after spaces *)
            let j = ref !i in
            while !j < n && (line.[!j] = ' ' || line.[!j] = '\t') do incr j done;
            if !j < n && line.[!j] = '(' then begin
              (* parse comma-separated arguments with paren balancing *)
              let args = ref [] in
              let depth = ref 1 in
              let k = ref (!j + 1) in
              let abuf = Buffer.create 16 in
              while !depth > 0 do
                if !k >= n then
                  raise (Error ("unterminated macro call of " ^ id, loc));
                let ch = line.[!k] in
                (match ch with
                | '(' -> incr depth; Buffer.add_char abuf ch
                | ')' ->
                    decr depth;
                    if !depth > 0 then Buffer.add_char abuf ch
                | ',' when !depth = 1 ->
                    args := Buffer.contents abuf :: !args;
                    Buffer.clear abuf
                | ch -> Buffer.add_char abuf ch);
                incr k
              done;
              args := Buffer.contents abuf :: !args;
              let args = List.rev_map String.trim !args in
              let args =
                if args = [ "" ] && params = [] then [] else args
              in
              if List.length args <> List.length params then
                raise
                  (Error
                     ( Fmt.str "macro %s expects %d argument(s), got %d" id
                         (List.length params) (List.length args),
                       loc ));
              (* expand arguments first (call-by-value expansion) *)
              let args = List.map (expand_line env ~loc ~active) args in
              (* substitute parameters in body *)
              let body' =
                subst_params params args body
              in
              Buffer.add_string buf
                (expand_line env ~loc ~active:(id :: active) body');
              i := !k
            end
            else Buffer.add_string buf id
        | None -> Buffer.add_string buf id
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

and subst_params params args body =
  let n = String.length body in
  let buf = Buffer.create (n + 16) in
  let i = ref 0 in
  while !i < n do
    let c = body.[!i] in
    if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char body.[!i] do incr i done;
      let id = String.sub body start (!i - start) in
      match List.find_index (String.equal id) params with
      | Some k -> Buffer.add_string buf (List.nth args k)
      | None -> Buffer.add_string buf id
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* #if expression evaluation                                           *)
(* ------------------------------------------------------------------ *)

(* Replace defined(X) / defined X by 1 or 0, then expand macros, then
   evaluate as an integer expression. *)
let eval_condition env ~loc (text : string) : bool =
  let text =
    let buf = Buffer.create (String.length text) in
    let n = String.length text in
    let i = ref 0 in
    while !i < n do
      if
        !i + 7 <= n
        && String.sub text !i 7 = "defined"
        && (!i + 7 = n || not (is_ident_char text.[!i + 7]))
      then begin
        i := !i + 7;
        while !i < n && (text.[!i] = ' ' || text.[!i] = '\t') do incr i done;
        let parens = !i < n && text.[!i] = '(' in
        if parens then incr i;
        while !i < n && (text.[!i] = ' ' || text.[!i] = '\t') do incr i done;
        let start = !i in
        while !i < n && is_ident_char text.[!i] do incr i done;
        let id = String.sub text start (!i - start) in
        while !i < n && (text.[!i] = ' ' || text.[!i] = '\t') do incr i done;
        if parens then
          if !i < n && text.[!i] = ')' then incr i
          else raise (Error ("expected ) after defined(", loc));
        Buffer.add_string buf (if is_defined env id then " 1 " else " 0 ")
      end
      else begin
        Buffer.add_char buf text.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  let text = expand_line env ~loc ~active:[] text in
  (* remaining identifiers evaluate to 0, as in C *)
  let text =
    let buf = Buffer.create (String.length text) in
    let n = String.length text in
    let i = ref 0 in
    while !i < n do
      if is_ident_start text.[!i] then begin
        while !i < n && is_ident_char text.[!i] do incr i done;
        Buffer.add_string buf " 0 "
      end
      else begin
        Buffer.add_char buf text.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  in
  (* tiny recursive-descent integer expression evaluator *)
  let toks = Lexer.tokenize ~file:"<#if>" text in
  let toks = ref toks in
  let peek () = match !toks with t :: _ -> t.Token.tok | [] -> Token.EOF in
  let next () =
    match !toks with
    | t :: rest ->
        toks := rest;
        t.Token.tok
    | [] -> Token.EOF
  in
  let fail () = raise (Error ("invalid #if expression", loc)) in
  let rec primary () =
    match next () with
    | Token.INT_LIT (n, _, _) -> n
    | Token.CHAR_LIT c -> c
    | Token.MINUS -> -primary ()
    | Token.PLUS -> primary ()
    | Token.BANG -> if primary () = 0 then 1 else 0
    | Token.TILDE -> lnot (primary ())
    | Token.LPAREN ->
        let v = ternary () in
        if next () <> Token.RPAREN then fail ();
        v
    | _ -> fail ()
  and mul () =
    let rec go acc =
      match peek () with
      | Token.STAR -> ignore (next ()); go (acc * primary ())
      | Token.SLASH ->
          ignore (next ());
          let d = primary () in
          if d = 0 then fail () else go (acc / d)
      | Token.PERCENT ->
          ignore (next ());
          let d = primary () in
          if d = 0 then fail () else go (acc mod d)
      | _ -> acc
    in
    go (primary ())
  and add () =
    let rec go acc =
      match peek () with
      | Token.PLUS -> ignore (next ()); go (acc + mul ())
      | Token.MINUS -> ignore (next ()); go (acc - mul ())
      | _ -> acc
    in
    go (mul ())
  and shift () =
    let rec go acc =
      match peek () with
      | Token.LSHIFT -> ignore (next ()); go (acc lsl add ())
      | Token.RSHIFT -> ignore (next ()); go (acc asr add ())
      | _ -> acc
    in
    go (add ())
  and rel () =
    let rec go acc =
      match peek () with
      | Token.LT -> ignore (next ()); go (if acc < shift () then 1 else 0)
      | Token.GT -> ignore (next ()); go (if acc > shift () then 1 else 0)
      | Token.LE -> ignore (next ()); go (if acc <= shift () then 1 else 0)
      | Token.GE -> ignore (next ()); go (if acc >= shift () then 1 else 0)
      | _ -> acc
    in
    go (shift ())
  and eq () =
    let rec go acc =
      match peek () with
      | Token.EQEQ -> ignore (next ()); go (if acc = rel () then 1 else 0)
      | Token.NEQ -> ignore (next ()); go (if acc <> rel () then 1 else 0)
      | _ -> acc
    in
    go (rel ())
  and band () =
    let rec go acc =
      match peek () with
      | Token.AMP -> ignore (next ()); go (acc land eq ())
      | _ -> acc
    in
    go (eq ())
  and bxor () =
    let rec go acc =
      match peek () with
      | Token.CARET -> ignore (next ()); go (acc lxor band ())
      | _ -> acc
    in
    go (band ())
  and bor () =
    let rec go acc =
      match peek () with
      | Token.BAR -> ignore (next ()); go (acc lor bxor ())
      | _ -> acc
    in
    go (bxor ())
  and land_ () =
    let rec go acc =
      match peek () with
      | Token.ANDAND ->
          ignore (next ());
          let r = bor () in
          go (if acc <> 0 && r <> 0 then 1 else 0)
      | _ -> acc
    in
    go (bor ())
  and lor_ () =
    let rec go acc =
      match peek () with
      | Token.BARBAR ->
          ignore (next ());
          let r = land_ () in
          go (if acc <> 0 || r <> 0 then 1 else 0)
      | _ -> acc
    in
    go (land_ ())
  and ternary () =
    let c = lor_ () in
    match peek () with
    | Token.QUESTION ->
        ignore (next ());
        let a = ternary () in
        if next () <> Token.COLON then fail ();
        let b = ternary () in
        if c <> 0 then a else b
    | _ -> c
  in
  ternary () <> 0

(* ------------------------------------------------------------------ *)
(* Directive parsing                                                   *)
(* ------------------------------------------------------------------ *)

let strip s =
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t' || s.[!i] = '\r') do incr i done;
  while !j >= !i && (s.[!j] = ' ' || s.[!j] = '\t' || s.[!j] = '\r') do decr j done;
  String.sub s !i (!j - !i + 1)

(* Is the first character after leading blanks (those [strip] drops) a
   '#'? *)
let is_directive (line : string) : bool =
  let n = String.length line in
  let rec go i =
    i < n
    && match line.[i] with ' ' | '\t' | '\r' -> go (i + 1) | '#' -> true | _ -> false
  in
  go 0

(* Parse "#define NAME..." after the word define. *)
let parse_define env ~loc rest =
  let rest = strip rest in
  let n = String.length rest in
  let i = ref 0 in
  while !i < n && is_ident_char rest.[!i] do incr i done;
  if !i = 0 then raise (Error ("#define: missing macro name", loc));
  let name = String.sub rest 0 !i in
  if !i < n && rest.[!i] = '(' then begin
    (* function-like *)
    let j = ref (!i + 1) in
    let params = ref [] in
    let pbuf = Buffer.create 8 in
    let stop = ref false in
    while not !stop do
      if !j >= n then raise (Error ("#define: unterminated parameter list", loc));
      (match rest.[!j] with
      | ')' ->
          let p = strip (Buffer.contents pbuf) in
          if p <> "" then params := p :: !params;
          stop := true
      | ',' ->
          params := strip (Buffer.contents pbuf) :: !params;
          Buffer.clear pbuf
      | c -> Buffer.add_char pbuf c);
      incr j
    done;
    let body = strip (String.sub rest !j (n - !j)) in
    define env name (Function (List.rev !params, body))
  end
  else
    let body = strip (String.sub rest !i (n - !i)) in
    define env name (Object body)

(* Conditional-inclusion stack entry: are we currently emitting, and has
   any branch of this #if chain already been taken? *)
type cond = { mutable emitting : bool; mutable taken : bool; parent_emitting : bool }

(** Preprocess [src] (named [file] for diagnostics), returning flattened
    source text with line markers. *)
let rec process env ~file ~(depth : int) (src : string) : string =
  if depth > 32 then
    raise (Error ("#include nesting too deep", Loc.make ~file ~line:1 ~col:1));
  let out = Buffer.create (String.length src + 256) in
  Buffer.add_string out (Fmt.str "# %d %S\n" 1 file);
  let lines = String.split_on_char '\n' src in
  let stack : cond list ref = ref [] in
  let emitting () =
    match !stack with [] -> true | c :: _ -> c.emitting
  in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let loc = Loc.make ~file ~line:lineno ~col:1 in
      if is_directive line then begin
        let sline = strip line in
        let body = strip (String.sub sline 1 (String.length sline - 1)) in
        let directive, rest =
          let n = String.length body in
          let i = ref 0 in
          while !i < n && is_ident_char body.[!i] do incr i done;
          (String.sub body 0 !i, String.sub body !i (n - !i))
        in
        match directive with
        | "define" when emitting () -> parse_define env ~loc rest
        | "undef" when emitting () -> undefine env (strip rest)
        | "include" when emitting () ->
            let rest = strip rest in
            let fname =
              if String.length rest >= 2 && rest.[0] = '"' then
                String.sub rest 1 (String.index_from rest 1 '"' - 1)
              else if String.length rest >= 2 && rest.[0] = '<' then
                String.sub rest 1 (String.index_from rest 1 '>' - 1)
              else raise (Error ("#include: expected \"file\"", loc))
            in
            let content =
              let rec try_paths = function
                | [] -> env.read_file fname
                | p :: ps -> (
                    match env.read_file (Filename.concat p fname) with
                    | Some c -> Some c
                    | None -> try_paths ps)
              in
              match try_paths env.include_paths with
              | Some c -> Some c
              | None -> env.read_file fname
            in
            (match content with
            | None -> raise (Error ("#include: cannot find " ^ fname, loc))
            | Some c ->
                Buffer.add_string out (process env ~file:fname ~depth:(depth + 1) c);
                Buffer.add_string out (Fmt.str "# %d %S\n" (lineno + 1) file))
        | "ifdef" ->
            let e = emitting () in
            let v = e && is_defined env (strip rest) in
            stack := { emitting = v; taken = v; parent_emitting = e } :: !stack
        | "ifndef" ->
            let e = emitting () in
            let v = e && not (is_defined env (strip rest)) in
            stack := { emitting = v; taken = v; parent_emitting = e } :: !stack
        | "if" ->
            let e = emitting () in
            let v = e && eval_condition env ~loc rest in
            stack := { emitting = v; taken = v; parent_emitting = e } :: !stack
        | "elif" -> (
            match !stack with
            | [] -> raise (Error ("#elif without #if", loc))
            | c :: _ ->
                if c.taken then c.emitting <- false
                else begin
                  let v = c.parent_emitting && eval_condition env ~loc rest in
                  c.emitting <- v;
                  c.taken <- v
                end)
        | "else" -> (
            match !stack with
            | [] -> raise (Error ("#else without #if", loc))
            | c :: _ ->
                c.emitting <- (c.parent_emitting && not c.taken);
                c.taken <- true)
        | "endif" -> (
            match !stack with
            | [] -> raise (Error ("#endif without #if", loc))
            | _ :: rest -> stack := rest)
        | "line" | "" -> if emitting () then Buffer.add_string out (line ^ "\n")
        | "pragma" -> () (* ignored *)
        | "error" ->
            if emitting () then raise (Error ("#error" ^ rest, loc))
        | d ->
            if emitting () then
              raise (Error ("unknown preprocessor directive #" ^ d, loc))
      end
      else if emitting () then begin
        Buffer.add_string out (expand_line env ~loc ~active:[] line);
        Buffer.add_char out '\n'
      end
      else Buffer.add_char out '\n' (* keep line numbering *))
    lines;
  (match !stack with
  | [] -> ()
  | _ ->
      raise
        (Error ("unterminated #if", Loc.make ~file ~line:(List.length lines) ~col:1)));
  Buffer.contents out

(** Entry point: preprocess a source string. *)
let run ?(env = make_env ()) ~file src = process env ~file ~depth:0 src

(* ------------------------------------------------------------------ *)
(* Analyzer directive comments                                         *)
(* ------------------------------------------------------------------ *)

(** Collect, in document order, the names listed by every "/* [tag] f g
    */" marker in [src].  Any amount of whitespace — spaces, tabs,
    newlines — may follow the tag and separate the names; the list ends
    at the closing "*/". *)
let scan_markers ~(tag : string) (src : string) : string list =
  let tlen = String.length tag in
  let n = String.length src in
  let is_ws c = c = ' ' || c = '\t' || c = '\r' || c = '\n' in
  let at_close j = j + 1 < n && src.[j] = '*' && src.[j + 1] = '/' in
  let rec tag_at i k = k = tlen || (src.[i + k] = tag.[k] && tag_at i (k + 1)) in
  let acc = ref [] in
  let i = ref 0 in
  while !i + tlen <= n do
    if tag_at !i 0 then begin
      let j = ref (!i + tlen) in
      let stop = ref false in
      while not !stop do
        while !j < n && is_ws src.[!j] do incr j done;
        if !j >= n || at_close !j then stop := true
        else begin
          let start = !j in
          while !j < n && (not (is_ws src.[!j])) && not (at_close !j) do
            incr j
          done;
          acc := String.sub src start (!j - start) :: !acc
        end
      done;
      i := !j
    end
    else incr i
  done;
  List.rev !acc

(** Function names listed by "/* astree-partition: f g */" markers,
    sorted and deduplicated. *)
let partition_markers (src : string) : string list =
  scan_markers ~tag:"astree-partition:" src |> List.sort_uniq String.compare

(** Task entry points listed by "/* astree-task: t u */" markers, in
    document order with duplicates removed (the first occurrence wins):
    unlike partition markers the order is meaningful — it fixes the
    task numbering of the interference analysis and its reports. *)
let task_markers (src : string) : string list =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun name ->
      if Hashtbl.mem seen name then false
      else begin
        Hashtbl.add seen name ();
        true
      end)
    (scan_markers ~tag:"astree-task:" src)
