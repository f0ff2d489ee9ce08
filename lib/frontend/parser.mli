(** Recursive-descent parser for the C subset (Sect. 5.1).  Unsupported
    constructs are rejected with an error message. *)

exception Error of string * Loc.t

(** Preprocess, lex and parse a source string. *)
val parse_string : ?env:Preproc.env -> file:string -> string -> Ast.unit_

(** Parse a single expression (testing / tooling helper). *)
val parse_expr_string : string -> Ast.expr
