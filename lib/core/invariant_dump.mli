(** Textual dump of loop invariants (Sect. 5.3, 9.4.1: the paper's main
    loop invariant dump is "a textual file over 4.5 Mb"). *)

(** Dump one abstract state's assertions, cells by id, which is program
    order ({!Transfer.prepared}). *)
val dump_state : Transfer.actx -> Format.formatter -> Astate.t -> unit

(** Dump every recorded loop invariant. *)
val to_string : Analysis.result -> string

(** Write the dump to a file; returns its size in bytes. *)
val to_file : Analysis.result -> string -> int
