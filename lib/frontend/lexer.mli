(** Hand-written lexer for the C subset (Sect. 5.1).  Consumes a whole
    source string (normally the output of {!Preproc}) and understands
    [#line]-style markers so locations refer to original files. *)

exception Error of string * Loc.t

(** Tokenize a whole source string; the result ends with [EOF]. *)
val tokenize : file:string -> string -> Token.spanned list

(** {1 Token by token} *)

type state

val make_state : file:string -> string -> state

(** The next token; at the end, [EOF] again and again. *)
val next_token : state -> Token.spanned
