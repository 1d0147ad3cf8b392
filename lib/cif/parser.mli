
(** CIF 2.0 parser.

    Accepts the full command set: [P] polygon, [B] box, [W] wire, [R]
    roundflash, [L] layer, [DS]/[DF] symbol definition with scale factor,
    [DD] delete, [C] call with transformation list, [E] end, parenthesized
    (nested) comments, and user extensions — of which [9 name] (symbol
    name) and [94 name x y \[layer\]] (net label) are interpreted, the rest
    preserved verbatim.

    The [DS a b] scale factor is applied to all contained distances at parse
    time; the stateful current layer is resolved onto each shape. *)

exception Error of { position : int; message : string }

(** A parser input: either an in-memory string or a read-only memory
    mapping of a regular file.  There is one lexer, over a bigstring: it
    walks a mapping in place — zero-copy — so parsing a large chip never
    materializes the file as an OCaml string, and it copies a string into
    a bigstring once before lexing it.  Per byte it allocates nothing;
    integer literals accumulate in place. *)
type input

(** Wrap an in-memory string. *)
val input_of_string : string -> input

(** [open_file path] opens [path] for parsing.  Regular non-empty files
    are memory-mapped ([Unix.map_file]); pipes, FIFOs and other
    non-mappable inputs fall back to reading the stream into memory.  The
    file descriptor is closed on every exit path, including failures.
    Raises [Sys_error] (like [open_in_bin]) when the file cannot be
    opened. *)
val open_file : string -> input

(** Whether the input is a zero-copy memory mapping (for telemetry). *)
val input_is_mapped : input -> bool

val input_length : input -> int

(** Materialize the input as a string (copies a mapping; the string form
    is only needed to render diagnostics with source context). *)
val input_to_string : input -> string

(** [parse_input i] parses a complete CIF file.  Raises {!Error}. *)
val parse_input : input -> Ast.file

(** Lenient counterpart of {!parse_input}; see {!parse_string_lenient}. *)
val parse_input_lenient :
  ?max_errors:int -> input -> Ast.file * Ace_diag.Diag.t list

(** [parse_string s] parses a complete CIF file.  Raises {!Error}. *)
val parse_string : string -> Ast.file

(** [parse_string_lenient s] never raises: every malformed command is
    recorded as a diagnostic (with a stable code and a byte span) and the
    parser resynchronizes at the next [;] (or [DF]/[E]), so a single run
    reports every problem and returns everything that could be salvaged.
    On a clean input the result is identical to {!parse_string} with an
    empty diagnostic list.  [max_errors] caps the number of
    [Error]-severity diagnostics (default 100); past the cap parsing
    stops and a trailing [Hint] reports the suppressed count. *)
val parse_string_lenient :
  ?max_errors:int -> string -> Ast.file * Ace_diag.Diag.t list

(** [parse_file path] = [parse_input (open_file path)]. *)
val parse_file : string -> Ast.file

(** Human-readable rendering of a parse error against its source. *)
val describe_error : source:string -> position:int -> message:string -> string
