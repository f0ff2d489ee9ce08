(* Frontend tests: preprocessing, lexing, parsing, elaboration,
   simplification, linking and the concrete interpreter (Sect. 5.1). *)

module F = Astree_frontend
module G = Astree_gen

let compile ?(main = "main") src =
  let ast = F.Parser.parse_string ~file:"<test>" src in
  F.Typecheck.elab_program ~main ast

let compile_simplified ?(main = "main") src =
  let p = compile ~main src in
  fst (F.Simplify.run p)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lex_numbers () =
  let toks = F.Lexer.tokenize ~file:"t" "42 0x1F 3.5 1e3 2.5f 7u 9L" in
  let kinds =
    List.filter_map
      (fun (t : F.Token.spanned) ->
        match t.F.Token.tok with
        | F.Token.INT_LIT (n, r, s) -> Some (`I (n, r, s))
        | F.Token.FLOAT_LIT (f, k) -> Some (`F (f, k))
        | _ -> None)
      toks
  in
  match kinds with
  | [ `I (42, _, _); `I (31, _, _); `F (3.5, F.Ctypes.Fdouble);
      `F (1000.0, F.Ctypes.Fdouble); `F (2.5, F.Ctypes.Fsingle);
      `I (7, _, F.Ctypes.Unsigned); `I (9, F.Ctypes.Long, _) ] ->
      ()
  | _ -> Alcotest.fail "unexpected literal lexing"

let test_lex_operators () =
  let toks = F.Lexer.tokenize ~file:"t" "a<<=b >>= && || -> ++ -- <= >= == !=" in
  Alcotest.(check int) "count" 14 (List.length toks) (* 13 tokens + EOF *)

let test_lex_comments_and_locs () =
  let toks = F.Lexer.tokenize ~file:"t" "a /* multi\nline */ b // eol\nc" in
  let idents =
    List.filter_map
      (fun (t : F.Token.spanned) ->
        match t.F.Token.tok with
        | F.Token.IDENT s -> Some (s, t.F.Token.tloc.F.Loc.line)
        | _ -> None)
      toks
  in
  Alcotest.(check (list (pair string int)))
    "locations" [ ("a", 1); ("b", 2); ("c", 3) ] idents

let test_lex_char_string () =
  let toks = F.Lexer.tokenize ~file:"t" {|'A' '\n' "hi\n"|} in
  match List.map (fun (t : F.Token.spanned) -> t.F.Token.tok) toks with
  | [ F.Token.CHAR_LIT 65; F.Token.CHAR_LIT 10; F.Token.STRING_LIT "hi\n";
      F.Token.EOF ] ->
      ()
  | _ -> Alcotest.fail "char/string lexing"

(* ------------------------------------------------------------------ *)
(* Preprocessor                                                        *)
(* ------------------------------------------------------------------ *)

(* simple substring check *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_preproc_object_macro () =
  let out = F.Preproc.run ~file:"t" "#define N 10\nint x[N];\n" in
  Alcotest.(check bool) "expanded" true (contains out "int x[10];")

let test_preproc_function_macro () =
  let out =
    F.Preproc.run ~file:"t"
      "#define MIN(a, b) ((a) < (b) ? (a) : (b))\ny = MIN(x + 1, 2);\n"
  in
  Alcotest.(check bool) "expanded" true
    (contains out "((x + 1) < (2) ? (x + 1) : (2))")

let test_preproc_conditionals () =
  let out =
    F.Preproc.run ~file:"t"
      "#define A 1\n#if A && !defined(B)\nyes\n#else\nno\n#endif\n"
  in
  Alcotest.(check bool) "took then" true (contains out "yes");
  Alcotest.(check bool) "skipped else" false (contains out "no")

let test_preproc_elif_chain () =
  let out =
    F.Preproc.run ~file:"t"
      "#define V 2\n#if V == 1\none\n#elif V == 2\ntwo\n#elif V == 3\nthree\n#else\nother\n#endif\n"
  in
  Alcotest.(check bool) "two" true (contains out "two");
  Alcotest.(check bool) "not one" false (contains out "one");
  Alcotest.(check bool) "not three" false (contains out "three")

let test_preproc_include () =
  let env =
    F.Preproc.make_env
      ~read_file:(fun name ->
        if name = "defs.h" then Some "#define LIMIT 100\n" else None)
      ()
  in
  let out = F.Preproc.run ~env ~file:"t" "#include \"defs.h\"\nint x = LIMIT;\n" in
  Alcotest.(check bool) "included" true (contains out "int x = 100;")

let test_preproc_no_self_recursion () =
  let out = F.Preproc.run ~file:"t" "#define X X + 1\ny = X;\n" in
  Alcotest.(check bool) "guarded" true (contains out "y = X + 1;")

let test_preproc_undef () =
  let out = F.Preproc.run ~file:"t" "#define A 1\n#undef A\n#ifdef A\nyes\n#endif\n" in
  Alcotest.(check bool) "undefined" false (contains out "yes")

let test_partition_markers () =
  Alcotest.(check (list string))
    "single space"
    [ "f"; "g" ]
    (F.Preproc.partition_markers "/* astree-partition: f g */");
  (* arbitrary whitespace after the colon and between names: tabs,
     multiple spaces, newlines *)
  Alcotest.(check (list string))
    "tab separated"
    [ "f"; "g" ]
    (F.Preproc.partition_markers "/* astree-partition:\tf\tg */");
  Alcotest.(check (list string))
    "mixed whitespace"
    [ "a"; "b"; "c" ]
    (F.Preproc.partition_markers
       "int x;\n/* astree-partition:   a\n   b\tc\n*/\nint y;");
  Alcotest.(check (list string))
    "several markers, deduplicated and sorted"
    [ "f"; "g"; "h" ]
    (F.Preproc.partition_markers
       "/* astree-partition: g f */ code /* astree-partition:\th */");
  Alcotest.(check (list string))
    "no marker" []
    (F.Preproc.partition_markers "int main(void) { return 0; }")

(* ------------------------------------------------------------------ *)
(* Parser / elaboration                                                *)
(* ------------------------------------------------------------------ *)

let test_parse_minimal () =
  let p = compile "int main(void) { return 0; }" in
  Alcotest.(check int) "one function" 1 (List.length p.F.Tast.p_funs)

let test_parse_precedence () =
  (* 1 + 2 * 3 folds to 7, not 9 *)
  let p = compile_simplified "int g = 1 + 2 * 3;\nint main(void) { return g; }" in
  match p.F.Tast.p_globals with
  | [ (_, F.Tast.Iint 7) ] -> ()
  | _ -> Alcotest.fail "precedence/constant folding"

let test_enum_and_sizeof () =
  let p =
    compile_simplified
      "enum mode { OFF, ON = 5, AUTO };\nint g = AUTO + sizeof(int);\nint main(void) { return g; }"
  in
  match p.F.Tast.p_globals with
  | [ (_, F.Tast.Iint 10) ] -> () (* AUTO = 6, sizeof(int) = 4 *)
  | _ -> Alcotest.fail "enum/sizeof evaluation"

let test_enum_as_type () =
  (* enum-typed variables are integers (Sect. 6.1.1) *)
  let src =
    "enum mode { OFF, ON };\nenum mode m;\nint main(void) { m = ON; __astree_assert(m == 1); while (1) { __astree_wait_for_clock(); } return 0; }"
  in
  let r = Astree_core.Analysis.analyze_string src in
  Alcotest.(check int) "enum var" 0 (Astree_core.Analysis.n_alarms r)

let test_nested_struct_array () =
  (* arrays of structs: field-sensitive cells through index paths *)
  let src =
    "struct pt { int x; int y; };\nstruct pt pts[3];\nint main(void) { pts[1].x = 7; pts[2].y = 9; __astree_assert(pts[1].x == 7); __astree_assert(pts[0].x == 0); while (1) { __astree_wait_for_clock(); } return 0; }"
  in
  let r = Astree_core.Analysis.analyze_string src in
  Alcotest.(check int) "nested cells" 0 (Astree_core.Analysis.n_alarms r)

let test_struct_with_array_field () =
  let src =
    "struct buf { int data[4]; int n; };\nstruct buf b;\nint main(void) { b.data[2] = 5; b.n = 1; __astree_assert(b.data[2] == 5); __astree_assert(b.n == 1); while (1) { __astree_wait_for_clock(); } return 0; }"
  in
  let r = Astree_core.Analysis.analyze_string src in
  Alcotest.(check int) "array field" 0 (Astree_core.Analysis.n_alarms r)

let test_typedef_struct () =
  let p =
    compile
      "struct pt { int x; int y; };\ntypedef struct pt point;\npoint g;\nint main(void) { g.x = 1; return g.x; }"
  in
  Alcotest.(check int) "globals" 1 (List.length p.F.Tast.p_globals)

let test_for_desugar () =
  let p = compile "int main(void) { int s; int i; s = 0; for (i = 0; i < 10; i = i + 1) { s = s + i; } return s; }" in
  (* the for became a while *)
  let found = ref false in
  List.iter
    (fun (_, fd) ->
      F.Tast.iter_stmts
        (fun s -> match s.F.Tast.sdesc with F.Tast.Swhile _ -> found := true | _ -> ())
        fd.F.Tast.fd_body)
    p.F.Tast.p_funs;
  Alcotest.(check bool) "while present" true !found

let test_switch_desugar () =
  let src =
    "int main(void) { int m; int r; m = 2; switch (m) { case 0: r = 1; break; case 2: r = 5; break; default: r = 9; break; } return r; }"
  in
  match F.Interp.run (compile src) with
  | F.Interp.Finished -> ()
  | F.Interp.Error (k, _) ->
      Alcotest.failf "error %a" F.Interp.pp_error_kind k

let test_side_effect_purification () =
  (* conditions with calls are hoisted; the elaborated condition is pure *)
  let p =
    compile
      "int f(void) { return 3; }\nint main(void) { int x; x = 0; if (f() > 2) { x = 1; } return x; }"
  in
  List.iter
    (fun (_, fd) ->
      F.Tast.iter_stmts
        (fun s ->
          match s.F.Tast.sdesc with
          | F.Tast.Sif (c, _, _) ->
              (* a pure condition only reads variables *)
              ignore (F.Tast.expr_vars c F.Tast.VarSet.empty)
          | _ -> ())
        fd.F.Tast.fd_body)
    p.F.Tast.p_funs;
  Alcotest.(check bool) "elaborated" true true

let test_static_locals_hoisted () =
  let p =
    compile
      "void f(void) { static int calls = 5; calls = calls + 1; }\nint main(void) { f(); return 0; }"
  in
  let statics =
    List.filter
      (fun ((v : F.Tast.var), _) ->
        match v.F.Tast.v_kind with F.Tast.Kstatic _ -> true | _ -> false)
      p.F.Tast.p_globals
  in
  match statics with
  | [ (v, F.Tast.Iint 5) ] ->
      Alcotest.(check string) "renamed" "f$calls" v.F.Tast.v_name
  | _ -> Alcotest.fail "static hoisting"

let test_reject_recursion_at_analysis () =
  let p = compile "int f(int n) { if (n > 0) { return f(n - 1); } return 0; }\nint main(void) { int r; r = f(3); return r; }" in
  let cfg = Astree_core.Config.default in
  (try
     ignore (Astree_core.Analysis.analyze ~cfg p);
     Alcotest.fail "recursion not rejected"
   with Astree_core.Iterator.Analysis_error _ -> ())

let test_reject_unknown_constructs () =
  (try
     ignore (compile "int main(void) { goto done; done: return 0; }");
     Alcotest.fail "goto accepted"
   with F.Parser.Error _ | F.Typecheck.Error _ -> ())

let test_array_param_by_ref () =
  let src =
    "void fill(int *p) { *p = 7; }\nint g;\nint main(void) { fill(&g); return g; }"
  in
  let st_result = ref None in
  let p = compile src in
  (match F.Interp.run p with
  | F.Interp.Finished -> st_result := Some ()
  | F.Interp.Error (k, _) -> Alcotest.failf "error %a" F.Interp.pp_error_kind k);
  Alcotest.(check bool) "ran" true (!st_result <> None)

(* ------------------------------------------------------------------ *)
(* Simplification                                                      *)
(* ------------------------------------------------------------------ *)

let test_unused_global_removal () =
  let p =
    compile_simplified
      "int used; int unused;\nint main(void) { used = 1; return used; }"
  in
  let names = List.map (fun ((v : F.Tast.var), _) -> v.F.Tast.v_name) p.F.Tast.p_globals in
  Alcotest.(check bool) "kept used" true (List.mem "used" names);
  Alcotest.(check bool) "dropped unused" false (List.mem "unused" names)

let test_const_array_folding () =
  (* constant-subscript reads of constant arrays are replaced and the
     array optimized away (Sect. 5.1) *)
  let p =
    compile_simplified
      "const int tab[4] = {10, 20, 30, 40};\nint main(void) { int x; x = tab[2]; return x; }"
  in
  let names = List.map (fun ((v : F.Tast.var), _) -> v.F.Tast.v_name) p.F.Tast.p_globals in
  Alcotest.(check bool) "array deleted" false (List.mem "tab" names);
  (* and the program still computes 30 *)
  match F.Interp.run p with
  | F.Interp.Finished -> ()
  | F.Interp.Error _ -> Alcotest.fail "run failed"

let test_constant_condition_pruning () =
  let p =
    compile_simplified
      "int main(void) { int x; if (1 < 0) { x = 1; } else { x = 2; } return x; }"
  in
  (* the dead branch is emptied *)
  let dead_assign = ref false in
  List.iter
    (fun (_, fd) ->
      F.Tast.iter_stmts
        (fun s ->
          match s.F.Tast.sdesc with
          | F.Tast.Sif (_, tb, _) -> if tb <> [] then dead_assign := true
          | _ -> ())
        fd.F.Tast.fd_body)
    p.F.Tast.p_funs;
  Alcotest.(check bool) "then pruned" false !dead_assign

(* ------------------------------------------------------------------ *)
(* Linker                                                              *)
(* ------------------------------------------------------------------ *)

let test_link_two_files () =
  let ast =
    F.Linker.parse_and_link
      [
        ("a.c", "extern int shared;\nint get(void) { return shared; }");
        ("b.c", "int shared = 9;\nint get(void);\nint main(void) { int r; r = get(); return r; }");
      ]
  in
  let p = F.Typecheck.elab_program ast in
  match F.Interp.run p with
  | F.Interp.Finished -> ()
  | F.Interp.Error (k, _) -> Alcotest.failf "link-run error %a" F.Interp.pp_error_kind k

let test_link_duplicate_function_rejected () =
  try
    ignore
      (F.Linker.parse_and_link
         [ ("a.c", "int f(void) { return 1; }"); ("b.c", "int f(void) { return 2; }") ]);
    Alcotest.fail "duplicate accepted"
  with F.Linker.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Concrete interpreter                                                *)
(* ------------------------------------------------------------------ *)

let run_expect_value src name expected =
  let p = compile src in
  let got = ref None in
  let on_tick st =
    got := F.Interp.read_global_scalar st name
  in
  (match F.Interp.run ~max_ticks:1 ~on_tick p with
  | F.Interp.Finished -> ()
  | F.Interp.Error (k, _) -> Alcotest.failf "error %a" F.Interp.pp_error_kind k);
  match !got with
  | Some (F.Interp.Vint n) -> Alcotest.(check int) name expected n
  | _ -> Alcotest.failf "global %s not an int" name

let test_interp_arith () =
  run_expect_value
    "int g;\nint main(void) { g = (7 * 3) % 5 + (20 >> 2); __astree_wait_for_clock(); return 0; }"
    "g" 6

let test_interp_div_by_zero () =
  let p = compile "int main(void) { int x; int y; x = 0; y = 5 / x; return y; }" in
  match F.Interp.run p with
  | F.Interp.Error (F.Interp.Div_by_zero, _) -> ()
  | _ -> Alcotest.fail "division by zero not detected"

let test_interp_overflow () =
  let p =
    compile
      "int main(void) { int x; x = 2147483647; x = x + 1; return x; }"
  in
  match F.Interp.run p with
  | F.Interp.Error (F.Interp.Int_overflow, _) -> ()
  | _ -> Alcotest.fail "overflow not detected"

let test_interp_oob () =
  let p =
    compile "int t[3];\nint main(void) { int i; i = 5; t[i] = 1; return 0; }"
  in
  match F.Interp.run p with
  | F.Interp.Error (F.Interp.Out_of_bounds, _) -> ()
  | _ -> Alcotest.fail "out-of-bounds not detected"

let test_interp_clock_stops () =
  let p =
    compile "int n;\nint main(void) { n = 0; while (1) { n = n + 1; __astree_wait_for_clock(); } return 0; }"
  in
  match F.Interp.run ~max_ticks:10 p with
  | F.Interp.Finished -> ()
  | F.Interp.Error (k, _) -> Alcotest.failf "error %a" F.Interp.pp_error_kind k

let test_interp_volatile_input () =
  let p =
    compile
      "volatile float s;\nfloat copy;\nint main(void) { __astree_input_range(s, 1.0, 3.0); copy = s; __astree_wait_for_clock(); return 0; }"
  in
  let seen = ref None in
  let on_tick st = seen := F.Interp.read_global_scalar st "copy" in
  (match F.Interp.run ~max_ticks:1 ~on_tick ~input:(fun _ -> 2.5) p with
  | F.Interp.Finished -> ()
  | F.Interp.Error (k, _) -> Alcotest.failf "error %a" F.Interp.pp_error_kind k);
  match !seen with
  | Some (F.Interp.Vfloat f) ->
      Alcotest.(check bool) "value" true (Float.abs (f -. 2.5) < 1e-6)
  | _ -> Alcotest.fail "copy not set"

(* robustness: random printable soup must either parse or raise the
   frontend's own exceptions, never crash *)
let prop_frontend_total =
  QCheck.Test.make ~name:"frontend is total on garbage" ~count:300
    QCheck.(string_gen_of_size (Gen.int_range 0 200) Gen.printable)
    (fun src ->
      match
        let ast = F.Parser.parse_string ~file:"<fuzz>" src in
        F.Typecheck.elab_program ast
      with
      | _ -> true
      | exception (F.Lexer.Error _ | F.Parser.Error _ | F.Typecheck.Error _
                  | F.Preproc.Error _) ->
          true)

(* and C-looking soup assembled from plausible tokens *)
let prop_frontend_total_tokens =
  QCheck.Test.make ~name:"frontend is total on token soup" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 60)
           (oneofl
              [ "int"; "float"; "if"; "else"; "while"; "("; ")"; "{"; "}";
                "x"; "y"; "f"; "1"; "2.5f"; "+"; "*"; "/"; "="; ";"; ",";
                "["; "]"; "&"; "return"; "void"; "struct"; "=="; "<" ])))
    (fun toks ->
      let src = String.concat " " toks in
      match
        let ast = F.Parser.parse_string ~file:"<fuzz>" src in
        F.Typecheck.elab_program ast
      with
      | _ -> true
      | exception (F.Lexer.Error _ | F.Parser.Error _ | F.Typecheck.Error _
                  | F.Preproc.Error _) ->
          true)

(* ------------------------------------------------------------------ *)
(* Keyword lookup and type names                                       *)
(* ------------------------------------------------------------------ *)

(* The lexer as it was when it looked every identifier up in
   [Token.keyword_table] with [List.assoc_opt]: the reference the
   table-driven lexer must agree with, token for token. *)
module Ref_lexer = struct

  type state = {
    src : string;
    mutable pos : int;
    mutable line : int;
    mutable col : int;
    mutable file : string;
  }

  let make_state ~file src = { src; pos = 0; line = 1; col = 1; file }

  let loc st = F.Loc.make ~file:st.file ~line:st.line ~col:st.col

  let error st msg = raise (F.Lexer.Error (msg, loc st))

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
    | ' ' | '\t' | '\r' | '\n' ->
        advance st;
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

  let lex_ident st =
    let start = st.pos in
    while is_alnum (peek st) do advance st done;
    String.sub st.src start (st.pos - start)

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
      let kind = if String.contains suffix 'f' then F.Ctypes.Fsingle else F.Ctypes.Fdouble in
      (* single-precision literals are rounded to binary32 at lexing time,
         matching the compiler of the analyzed family *)
      let v =
        if kind = F.Ctypes.Fsingle then Int32.float_of_bits (Int32.bits_of_float v)
        else v
      in
      F.Token.FLOAT_LIT (v, kind)
    else
      let v =
        try int_of_string body
        with _ -> error st ("invalid integer literal " ^ body)
      in
      let unsigned = String.contains suffix 'u' in
      let long = String.contains suffix 'l' in
      let rank = if long then F.Ctypes.Long else F.Ctypes.Int in
      let sign = if unsigned then F.Ctypes.Unsigned else F.Ctypes.Signed in
      F.Token.INT_LIT (v, rank, sign)

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
    F.Token.CHAR_LIT c

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
    F.Token.STRING_LIT (Buffer.contents buf)

  let next_token st : F.Token.spanned =
    skip_trivia st;
    let tloc = loc st in
    let mk tok = { F.Token.tok; tloc } in
    let one tok = advance st; mk tok in
    let two tok = advance st; advance st; mk tok in
    let three tok = advance st; advance st; advance st; mk tok in
    match peek st with
    | '\000' -> mk F.Token.EOF
    | c when is_digit c -> mk (lex_number st)
    | '.' when is_digit (peek2 st) -> mk (lex_number st)
    | c when is_alpha c ->
        let id = lex_ident st in
        (match List.assoc_opt id F.Token.keyword_table with
        | Some kw -> mk kw
        | None -> mk (F.Token.IDENT id))
    | '\'' -> mk (lex_char_lit st)
    | '"' -> mk (lex_string_lit st)
    | '(' -> one F.Token.LPAREN
    | ')' -> one F.Token.RPAREN
    | '{' -> one F.Token.LBRACE
    | '}' -> one F.Token.RBRACE
    | '[' -> one F.Token.LBRACKET
    | ']' -> one F.Token.RBRACKET
    | ';' -> one F.Token.SEMI
    | ',' -> one F.Token.COMMA
    | ':' -> one F.Token.COLON
    | '?' -> one F.Token.QUESTION
    | '.' -> one F.Token.DOT
    | '~' -> one F.Token.TILDE
    | '+' -> (
        match peek2 st with
        | '+' -> two F.Token.PLUSPLUS
        | '=' -> two F.Token.PLUSEQ
        | _ -> one F.Token.PLUS)
    | '-' -> (
        match peek2 st with
        | '-' -> two F.Token.MINUSMINUS
        | '=' -> two F.Token.MINUSEQ
        | '>' -> two F.Token.ARROW
        | _ -> one F.Token.MINUS)
    | '*' -> if peek2 st = '=' then two F.Token.STAREQ else one F.Token.STAR
    | '/' -> if peek2 st = '=' then two F.Token.SLASHEQ else one F.Token.SLASH
    | '%' -> if peek2 st = '=' then two F.Token.PERCENTEQ else one F.Token.PERCENT
    | '^' -> if peek2 st = '=' then two F.Token.CARETEQ else one F.Token.CARET
    | '!' -> if peek2 st = '=' then two F.Token.NEQ else one F.Token.BANG
    | '=' -> if peek2 st = '=' then two F.Token.EQEQ else one F.Token.ASSIGN
    | '&' -> (
        match peek2 st with
        | '&' -> two F.Token.ANDAND
        | '=' -> two F.Token.AMPEQ
        | _ -> one F.Token.AMP)
    | '|' -> (
        match peek2 st with
        | '|' -> two F.Token.BARBAR
        | '=' -> two F.Token.BAREQ
        | _ -> one F.Token.BAR)
    | '<' -> (
        match peek2 st with
        | '=' -> two F.Token.LE
        | '<' ->
            if st.pos + 2 < String.length st.src && st.src.[st.pos + 2] = '='
            then three F.Token.LSHIFTEQ
            else two F.Token.LSHIFT
        | _ -> one F.Token.LT)
    | '>' -> (
        match peek2 st with
        | '=' -> two F.Token.GE
        | '>' ->
            if st.pos + 2 < String.length st.src && st.src.[st.pos + 2] = '='
            then three F.Token.RSHIFTEQ
            else two F.Token.RSHIFT
        | _ -> one F.Token.GT)
    | c -> error st (Fmt.str "unexpected character %C" c)

  (** Tokenize a whole source string. *)
  let tokenize ~file src : F.Token.spanned list =
    let st = make_state ~file src in
    let rec loop acc =
      let t = next_token st in
      if t.F.Token.tok = F.Token.EOF then List.rev (t :: acc) else loop (t :: acc)
    in
    loop []
end

let test_keywords_lex () =
  List.iter
    (fun (word, kw) ->
      match F.Lexer.tokenize ~file:"t" word with
      | [ { F.Token.tok; _ }; { F.Token.tok = F.Token.EOF; _ } ] ->
          Alcotest.(check bool) (word ^ " lexes as its keyword") true (tok = kw)
      | _ -> Alcotest.failf "%s: not one token" word)
    F.Token.keyword_table;
  List.iter
    (fun word ->
      match F.Lexer.tokenize ~file:"t" word with
      | [ { F.Token.tok = F.Token.IDENT s; _ }; _ ] ->
          Alcotest.(check string) (word ^ " is an identifier") word s
      | _ -> Alcotest.failf "%s: not an identifier" word)
    [ "int_"; "ifx"; "_Boolean"; "whilez"; "Int"; "sizeof1"; "d"; "_" ]

(* tests run from the dune sandbox; walk up to the repository root *)
let examples_dir () =
  let rec find dir depth =
    let cand = Filename.concat dir "examples/data" in
    if Sys.file_exists cand then cand
    else if depth = 0 then Alcotest.fail "examples/data not found"
    else find (Filename.dirname dir) (depth - 1)
  in
  find (Sys.getcwd ()) 6

let test_lexer_matches_reference () =
  let dir = examples_dir () in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (f, In_channel.with_open_bin path In_channel.input_all))
  in
  Alcotest.(check bool) "examples found" true (List.length examples >= 3);
  let member =
    (G.Generator.generate
       { G.Generator.default with G.Generator.seed = 3; target_lines = 1500; fuse = 16 })
      .G.Generator.source
  in
  List.iter
    (fun (file, src) ->
      let pp = F.Preproc.run ~file src in
      let expect = Ref_lexer.tokenize ~file pp and got = F.Lexer.tokenize ~file pp in
      Alcotest.(check int) (file ^ ": token count") (List.length expect)
        (List.length got);
      List.iteri
        (fun i ((e : F.Token.spanned), (g : F.Token.spanned)) ->
          if e.F.Token.tok <> g.F.Token.tok || F.Loc.compare e.F.Token.tloc g.F.Token.tloc <> 0
          then
            Alcotest.failf "%s: token %d is %a at %a, the reference's %a at %a"
              file i F.Token.pp g.F.Token.tok F.Loc.pp g.F.Token.tloc
              F.Token.pp e.F.Token.tok F.Loc.pp e.F.Token.tloc)
        (List.combine expect got))
    (("member.c", member) :: examples)

(* the parser lexes as it goes; a lexical error still wins over a parse
   error before it, as when the whole source was lexed first *)
let test_lex_error_wins () =
  let lex_error src =
    match F.Parser.parse_string ~file:"t" src with
    | _ -> Alcotest.failf "%S parsed" src
    | exception F.Lexer.Error (_, l) -> Some l.F.Loc.line
    | exception F.Parser.Error _ -> None
  in
  Alcotest.(check (option int)) "parse error, then a bad character" (Some 2)
    (lex_error "int x = ;\nint y = @;\n");
  Alcotest.(check (option int)) "a parse error alone" None
    (lex_error "int x = ;\nint y = 1;\n");
  Alcotest.(check bool) "an expression with a bad character" true
    (match F.Parser.parse_expr_string "a + ) $" with
    | _ -> false
    | exception F.Lexer.Error _ -> true)

(* Ctypes.to_string is what fingerprints and frame identities are made
   of: it must stay the text [Ctypes.pp] prints *)
let gen_ctype : F.Ctypes.t QCheck.Gen.t =
  let open QCheck.Gen in
  let scalar =
    oneofl
      (List.concat_map
         (fun r ->
           [ F.Ctypes.Tint (r, F.Ctypes.Signed); F.Ctypes.Tint (r, F.Ctypes.Unsigned) ])
         [ F.Ctypes.Bool; F.Ctypes.Char; F.Ctypes.Short; F.Ctypes.Int; F.Ctypes.Long ]
      @ [ F.Ctypes.Tfloat F.Ctypes.Fsingle; F.Ctypes.Tfloat F.Ctypes.Fdouble ])
  in
  let name =
    string_size ~gen:(oneofl (String.to_seq "abcxyzABC_019" |> List.of_seq))
      (int_range 1 12)
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then
           frequency
             [ (6, map (fun s -> F.Ctypes.Tscalar s) scalar);
               (1, return F.Ctypes.Tvoid);
               (2, map (fun s -> F.Ctypes.Tstruct s) name) ]
         else
           frequency
             [ (3, self 0);
               (3, map2 (fun t k -> F.Ctypes.Tarray (t, k)) (self (n / 2))
                     (oneof [ int_range 0 300; int; return max_int; return min_int ]));
               (2, map (fun t -> F.Ctypes.Tptr t) (self (n / 2))) ])

let prop_type_names =
  QCheck.Test.make ~name:"Ctypes.to_string prints what Ctypes.pp prints"
    ~count:2000
    (QCheck.make ~print:(Fmt.str "%a" F.Ctypes.pp) gen_ctype)
    (fun t -> String.equal (F.Ctypes.to_string t) (Fmt.str "%a" F.Ctypes.pp t))

let suite =
  [
    Alcotest.test_case "lex numbers" `Quick test_lex_numbers;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex comments/locations" `Quick test_lex_comments_and_locs;
    Alcotest.test_case "lex chars/strings" `Quick test_lex_char_string;
    Alcotest.test_case "preproc object macro" `Quick test_preproc_object_macro;
    Alcotest.test_case "preproc function macro" `Quick test_preproc_function_macro;
    Alcotest.test_case "preproc conditionals" `Quick test_preproc_conditionals;
    Alcotest.test_case "preproc elif chain" `Quick test_preproc_elif_chain;
    Alcotest.test_case "preproc include" `Quick test_preproc_include;
    Alcotest.test_case "preproc self-recursion guard" `Quick test_preproc_no_self_recursion;
    Alcotest.test_case "preproc undef" `Quick test_preproc_undef;
    Alcotest.test_case "partition markers" `Quick test_partition_markers;
    Alcotest.test_case "parse minimal" `Quick test_parse_minimal;
    Alcotest.test_case "precedence + folding" `Quick test_parse_precedence;
    Alcotest.test_case "enum + sizeof" `Quick test_enum_and_sizeof;
    Alcotest.test_case "typedef struct" `Quick test_typedef_struct;
    Alcotest.test_case "enum as a type" `Quick test_enum_as_type;
    Alcotest.test_case "array of structs" `Quick test_nested_struct_array;
    Alcotest.test_case "struct with array field" `Quick test_struct_with_array_field;
    Alcotest.test_case "for desugaring" `Quick test_for_desugar;
    Alcotest.test_case "switch desugaring" `Quick test_switch_desugar;
    Alcotest.test_case "condition purification" `Quick test_side_effect_purification;
    Alcotest.test_case "static locals hoisted" `Quick test_static_locals_hoisted;
    Alcotest.test_case "recursion rejected" `Quick test_reject_recursion_at_analysis;
    Alcotest.test_case "goto rejected" `Quick test_reject_unknown_constructs;
    Alcotest.test_case "call-by-reference" `Quick test_array_param_by_ref;
    Alcotest.test_case "unused globals removed" `Quick test_unused_global_removal;
    Alcotest.test_case "constant arrays folded" `Quick test_const_array_folding;
    Alcotest.test_case "constant conditions pruned" `Quick test_constant_condition_pruning;
    Alcotest.test_case "link two files" `Quick test_link_two_files;
    Alcotest.test_case "duplicate function rejected" `Quick test_link_duplicate_function_rejected;
    Alcotest.test_case "interp arithmetic" `Quick test_interp_arith;
    Alcotest.test_case "interp division by zero" `Quick test_interp_div_by_zero;
    Alcotest.test_case "interp overflow" `Quick test_interp_overflow;
    Alcotest.test_case "interp out-of-bounds" `Quick test_interp_oob;
    Alcotest.test_case "interp clock stop" `Quick test_interp_clock_stops;
    Alcotest.test_case "interp volatile input" `Quick test_interp_volatile_input;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_frontend_total; prop_frontend_total_tokens ]
  @ [
      Alcotest.test_case "keywords lex by table" `Quick test_keywords_lex;
      Alcotest.test_case "lexer agrees with reference" `Quick
        test_lexer_matches_reference;
      Alcotest.test_case "lexical errors win over parse errors" `Quick
        test_lex_error_wins;
    ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_type_names ]
