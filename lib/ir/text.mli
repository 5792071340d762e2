(** Textual IR: the one textual form of programs, and its parser.

    [emit] and [parse] round-trip: [parse (emit p)] has behaviour
    identical to [p], and re-emits to the same text (checked over every
    workload, every build the transform digests pin and randomly
    generated programs in the test suite).  [emit] depends on nothing
    but the program: names are sorted, floats print exactly.  '#' starts
    a line comment. *)

exception Parse_error of int * string
(** (line number, message) *)

val emit : Prog.t -> string

(** One instruction of a function, as [emit] prints it (no newline). *)
val inst_to_string : Func.t -> Inst.inst -> string

(** Parses in time linear in the text.  A register may be used before
    the line that defines it. *)
val parse : string -> Prog.t
