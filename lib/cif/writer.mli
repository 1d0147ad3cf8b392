
(** CIF text generation.

    Produces conventional, human-readable CIF: one command per line,
    semicolon-terminated, symbol definitions first, then the top level and
    the final [E].  [Parser.parse_string] of the output reconstructs the
    same AST (round-trip property, tested).  Integers go straight into
    one [Buffer], with no [Printf]: [aced] serialises every request's
    design to build its cache key. *)

val to_string : Ast.file -> string

val to_file : string -> Ast.file -> unit
