open Ace_geom
module Diag = Ace_diag.Diag
module Collector = Ace_diag.Collector

exception Error of { position : int; message : string }

(* Internal failure carrying the stable diagnostic code; the public strict
   entry point re-raises it as {!Error}, the lenient one records it and
   resynchronizes. *)
exception Perror of { position : int; code : string; message : string }

let fail ~code pos fmt =
  Format.kasprintf
    (fun message -> raise (Perror { position = pos; code; message }))
    fmt

type def_state = {
  def_id : int;
  scale_num : int;
  scale_den : int;
  mutable def_name : string option;
  mutable def_elements : Ast.element list;  (** reversed *)
}

let scale st n =
  match st with
  | None -> n
  | Some d ->
      (* round-half-away-from-zero on the (rare) non-exact case *)
      let v = n * d.scale_num in
      if v mod d.scale_den = 0 then v / d.scale_den
      else
        let q = float_of_int v /. float_of_int d.scale_den in
        int_of_float (Float.round q)

let scale_point st (p : Point.t) = Point.make (scale st p.x) (scale st p.y)

(* The lexer reads one concretely typed bigstring, so every byte access
   compiles to an inline load.  A mapped file is lexed in place; an
   in-memory string is copied into a bigstring once. *)
type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type cursor = { src : bigstring; len : int; mutable pos : int }

(* The byte at [i], which the caller has checked is below [len]. *)
let byte cur i = Char.code (Bigarray.Array1.unsafe_get cur.src i)

(* The current byte code, or -1 at end of input. *)
let peek cur = if cur.pos < cur.len then byte cur cur.pos else -1

let is_digit c = c >= Char.code '0' && c <= Char.code '9'
let is_upper c = c >= Char.code 'A' && c <= Char.code 'Z'

let sub cur start len =
  String.init len (fun i -> Bigarray.Array1.unsafe_get cur.src (start + i))

(* Skip CIF blanks: anything that is not a digit, uppercase letter, '-',
   '(', ')' or ';'.  Parenthesized comments nest and count as blank. *)
let rec skip_blanks cur =
  let c = peek cur in
  if c = Char.code '(' then begin
    let opened = cur.pos in
    let depth = ref 0 in
    let continue = ref true in
    while !continue do
      let c = peek cur in
      if c < 0 then
        fail ~code:"cif-unterminated-comment" opened "unterminated comment"
      else if c = Char.code '(' then incr depth
      else if c = Char.code ')' then
        if !depth = 1 then continue := false else decr depth;
      cur.pos <- cur.pos + 1
    done;
    skip_blanks cur
  end
  else if
    c >= 0
    && not
         (is_digit c || is_upper c || c = Char.code '-' || c = Char.code ';'
        || c = Char.code ')')
  then begin
    cur.pos <- cur.pos + 1;
    skip_blanks cur
  end

(* Digits accumulate in place; the literal's text is only built for the
   overflow diagnostic, which names it exactly as written. *)
let read_int cur =
  skip_blanks cur;
  let neg = peek cur = Char.code '-' in
  if neg then cur.pos <- cur.pos + 1;
  let start = cur.pos in
  let n = ref 0 and overflow = ref false in
  while is_digit (peek cur) do
    let d = byte cur cur.pos - Char.code '0' in
    if !n > (max_int - d) / 10 then overflow := true else n := (!n * 10) + d;
    cur.pos <- cur.pos + 1
  done;
  if cur.pos = start then
    fail ~code:"cif-expected-integer" cur.pos "expected an integer";
  if !overflow then
    fail ~code:"cif-integer-overflow" start "integer literal '%s%s' out of range"
      (if neg then "-" else "")
      (sub cur start (cur.pos - start));
  if neg then - !n else !n

(* Does an integer start at the next non-blank byte? *)
let at_int cur =
  skip_blanks cur;
  let c = peek cur in
  is_digit c || c = Char.code '-'

let read_point cur =
  let x = read_int cur in
  let y = read_int cur in
  Point.make x y

let expect_semi cur =
  skip_blanks cur;
  let c = peek cur in
  if c = Char.code ';' then cur.pos <- cur.pos + 1
  else if c >= 0 then
    fail ~code:"cif-expected-semi" cur.pos "expected ';', found %c" (Char.chr c)
  else fail ~code:"cif-expected-semi" cur.pos "expected ';', found end of input"

(* Read the rest of the command verbatim (for user extensions). *)
let read_to_semi cur =
  let start = cur.pos in
  while
    let c = peek cur in
    if c < 0 then
      fail ~code:"cif-unterminated-command" start "unterminated command";
    c <> Char.code ';'
  do
    cur.pos <- cur.pos + 1
  done;
  let text = sub cur start (cur.pos - start) in
  cur.pos <- cur.pos + 1;
  String.trim text

let read_layer_name cur =
  skip_blanks cur;
  let start = cur.pos in
  while
    let c = peek cur in
    is_upper c || is_digit c
  do
    cur.pos <- cur.pos + 1
  done;
  if cur.pos = start then
    fail ~code:"cif-expected-layer-name" cur.pos "expected a layer name";
  sub cur start (cur.pos - start)

let read_points_until_semi cur =
  let rec go acc =
    if at_int cur then
      let x = read_int cur in
      let y = read_int cur in
      go (Point.make x y :: acc)
    else List.rev acc
  in
  go []

let read_transform_ops cur =
  let rec go acc =
    skip_blanks cur;
    let c = peek cur in
    if c = Char.code 'T' then begin
      cur.pos <- cur.pos + 1;
      let dx = read_int cur in
      let dy = read_int cur in
      go (Ast.Translate (dx, dy) :: acc)
    end
    else if c = Char.code 'M' then begin
      cur.pos <- cur.pos + 1;
      skip_blanks cur;
      let c = peek cur in
      if c = Char.code 'X' then begin
        cur.pos <- cur.pos + 1;
        go (Ast.Mirror_x :: acc)
      end
      else if c = Char.code 'Y' then begin
        cur.pos <- cur.pos + 1;
        go (Ast.Mirror_y :: acc)
      end
      else fail ~code:"cif-bad-transform" cur.pos "expected X or Y after M"
    end
    else if c = Char.code 'R' then begin
      cur.pos <- cur.pos + 1;
      let a = read_int cur in
      let b = read_int cur in
      go (Ast.Rotate (a, b) :: acc)
    end
    else List.rev acc
  in
  go []

(* A word of uppercase letters (used after a label position for an optional
   layer name); returns None at ';'. *)
let try_read_word cur =
  skip_blanks cur;
  if is_upper (peek cur) then Some (read_layer_name cur) else None

(* Labels in extension 94: a name is any run of non-blank, non-';'
   characters starting at the first non-blank position. *)
let read_label_name cur =
  let is_space c =
    c = Char.code ' ' || c = Char.code '\t' || c = Char.code '\n'
    || c = Char.code '\r'
  in
  while
    let c = peek cur in
    is_space c || c = Char.code ','
  do
    cur.pos <- cur.pos + 1
  done;
  let start = cur.pos in
  while
    let c = peek cur in
    c >= 0 && c <> Char.code ';' && not (is_space c)
  do
    cur.pos <- cur.pos + 1
  done;
  if cur.pos = start then
    fail ~code:"cif-expected-label-name" cur.pos "expected a label name";
  sub cur start (cur.pos - start)

(* Recovery: skip forward to just past the next ';'.  Stop (without
   consuming) at an 'E' or "DF" that follows at least one consumed
   character, so end-of-definition and end-of-file markers inside garbage
   still close their scopes.  Raw byte scan on purpose: after an error the
   comment/blank structure cannot be trusted. *)
let resync cur =
  let start = cur.pos in
  let len = cur.len in
  (* a marker only counts when it is not a prefix of a longer word *)
  let word_ends_at i =
    i >= len || not (is_upper (byte cur i) || is_digit (byte cur i))
  in
  let stop = ref false in
  while not !stop do
    if cur.pos >= len then stop := true
    else
      let c = byte cur cur.pos in
      if c = Char.code ';' then begin
        cur.pos <- cur.pos + 1;
        stop := true
      end
      else if
        (c = Char.code 'E' && cur.pos > start && word_ends_at (cur.pos + 1))
        || c = Char.code 'D'
           && cur.pos > start
           && cur.pos + 1 < len
           && byte cur (cur.pos + 1) = Char.code 'F'
           && word_ends_at (cur.pos + 2)
      then stop := true
      else cur.pos <- cur.pos + 1
  done;
  (* guarantee progress even when the error position itself is the marker *)
  if cur.pos = start && start < len then cur.pos <- start + 1

(* [collector = None] is strict mode: the first [Perror] propagates.  With
   a collector every error is recorded and parsing resumes at the next
   synchronization point, so the returned AST covers everything that could
   be salvaged. *)
let parse ?collector src =
  let cur = { src; len = Bigarray.Array1.dim src; pos = 0 } in
  let symbols = ref [] in
  let top = ref [] in
  let current_def : def_state option ref = ref None in
  let current_layer = ref None in
  let add_element e =
    match !current_def with
    | Some d -> d.def_elements <- e :: d.def_elements
    | None -> top := e :: !top
  in
  let require_layer pos =
    match !current_layer with
    | Some layer -> layer
    | None ->
        fail ~code:"cif-no-layer" pos "geometry before any L (layer) command"
  in
  let add_shape layer shape = add_element (Ast.Shape { layer; shape }) in
  let commit_def (d : def_state) =
    symbols :=
      { Ast.id = d.def_id; name = d.def_name; elements = List.rev d.def_elements }
      :: !symbols;
    current_def := None;
    (* CIF: the current layer does not survive a definition *)
    current_layer := None
  in
  let finished = ref false in
  let step () =
    skip_blanks cur;
    let c = peek cur in
    if c < 0 then
      match !current_def with
      | Some _ ->
          fail ~code:"cif-unterminated-definition" cur.pos
            "end of input inside a symbol definition (missing DF)"
      | None -> fail ~code:"cif-missing-end" cur.pos "missing E (end) command"
    else
      match Char.unsafe_chr c with
      | ';' -> cur.pos <- cur.pos + 1 (* empty command *)
      | 'P' ->
          let layer = require_layer cur.pos in
          cur.pos <- cur.pos + 1;
          let pts = read_points_until_semi cur in
          expect_semi cur;
          let st = !current_def in
          add_shape layer (Ast.Polygon (List.map (scale_point st) pts))
      | 'B' ->
          let layer = require_layer cur.pos in
          cur.pos <- cur.pos + 1;
          let st = !current_def in
          let length = scale st (read_int cur) in
          let width = scale st (read_int cur) in
          let center = scale_point st (read_point cur) in
          let direction =
            if at_int cur then
              let a = read_int cur in
              let b = read_int cur in
              Some (Point.make a b)
            else None
          in
          expect_semi cur;
          add_shape layer (Ast.Box { length; width; center; direction })
      | 'W' ->
          let layer = require_layer cur.pos in
          cur.pos <- cur.pos + 1;
          let st = !current_def in
          let width = scale st (read_int cur) in
          let path = List.map (scale_point st) (read_points_until_semi cur) in
          expect_semi cur;
          add_shape layer (Ast.Wire { width; path })
      | 'R' ->
          let layer = require_layer cur.pos in
          cur.pos <- cur.pos + 1;
          let st = !current_def in
          let diameter = scale st (read_int cur) in
          let center = scale_point st (read_point cur) in
          expect_semi cur;
          add_shape layer (Ast.Round_flash { diameter; center })
      | 'L' ->
          cur.pos <- cur.pos + 1;
          let name = read_layer_name cur in
          expect_semi cur;
          current_layer := Some name
      | 'D' -> (
          cur.pos <- cur.pos + 1;
          skip_blanks cur;
          let c = peek cur in
          if c = Char.code 'S' then begin
            if !current_def <> None then
              fail ~code:"cif-nested-definition" cur.pos
                "nested DS (symbol definitions cannot nest)";
            cur.pos <- cur.pos + 1;
            let id = read_int cur in
            let scale_num, scale_den =
              if at_int cur then begin
                let a = read_int cur in
                let b = read_int cur in
                if a <= 0 || b <= 0 then
                  fail ~code:"cif-bad-scale" cur.pos
                    "DS scale factors must be positive";
                (a, b)
              end
              else (1, 1)
            in
            expect_semi cur;
            current_def :=
              Some
                {
                  def_id = id;
                  scale_num;
                  scale_den;
                  def_name = None;
                  def_elements = [];
                }
          end
          else if c = Char.code 'F' then begin
            cur.pos <- cur.pos + 1;
            match !current_def with
            | None ->
                fail ~code:"cif-df-without-ds" cur.pos "DF without matching DS"
            | Some d ->
                expect_semi cur;
                commit_def d
          end
          else if c = Char.code 'D' then begin
            cur.pos <- cur.pos + 1;
            let n = read_int cur in
            expect_semi cur;
            (* Delete definitions >= n.  Rare; honored literally. *)
            symbols := List.filter (fun (s : Ast.symbol_def) -> s.id < n) !symbols
          end
          else fail ~code:"cif-bad-d-command" cur.pos "expected S, F or D after D")
      | 'C' ->
          cur.pos <- cur.pos + 1;
          let symbol = read_int cur in
          let raw_ops = read_transform_ops cur in
          expect_semi cur;
          let st = !current_def in
          let ops =
            List.map
              (function
                | Ast.Translate (dx, dy) -> Ast.Translate (scale st dx, scale st dy)
                | (Ast.Mirror_x | Ast.Mirror_y | Ast.Rotate _) as op -> op)
              raw_ops
          in
          add_element (Ast.Call { symbol; ops })
      | 'E' ->
          cur.pos <- cur.pos + 1;
          if !current_def <> None then
            fail ~code:"cif-end-in-definition" (cur.pos - 1)
              "E inside a symbol definition";
          finished := true
      | '9' ->
          cur.pos <- cur.pos + 1;
          if peek cur = Char.code '4' then begin
            cur.pos <- cur.pos + 1;
            let name = read_label_name cur in
            let st = !current_def in
            let position = scale_point st (read_point cur) in
            let layer = try_read_word cur in
            expect_semi cur;
            add_element (Ast.Label { name; position; layer })
          end
          else begin
            (* 9 name; — names the current symbol *)
            let name = read_label_name cur in
            expect_semi cur;
            match !current_def with
            | Some d -> d.def_name <- Some name
            | None -> add_element (Ast.Comment_ext ("9 " ^ name))
          end
      | '0' .. '8' ->
          let text = read_to_semi cur in
          add_element (Ast.Comment_ext text)
      | c -> fail ~code:"cif-unknown-command" cur.pos "unknown command '%c'" c
  in
  (match collector with
  | None -> while not !finished do step () done
  | Some c ->
      while not !finished do
        try step ()
        with Perror { position; code; message } ->
          let stop = min cur.len (position + 1) in
          Collector.add c
            (Diag.error ~span:{ Diag.start = position; stop } ~code message);
          (match code with
          | "cif-end-in-definition" ->
              (* the designer forgot DF: close the definition and end *)
              (match !current_def with Some d -> commit_def d | None -> ());
              finished := true
          | "cif-missing-end" -> finished := true
          | "cif-unterminated-definition" ->
              (match !current_def with Some d -> commit_def d | None -> ());
              finished := true
          | _ -> resync cur);
          if Collector.saturated c && not !finished then begin
            Collector.add c
              (Diag.hint ~code:"too-many-errors"
                 "error cap reached: the rest of the input was not parsed");
            finished := true
          end
      done);
  { Ast.symbols = List.rev !symbols; top_level = List.rev !top }

type input = In_memory of string | Mapped of bigstring

let input_of_string s = In_memory s
let input_is_mapped = function Mapped _ -> true | In_memory _ -> false

let input_length = function
  | In_memory s -> String.length s
  | Mapped ba -> Bigarray.Array1.dim ba

let input_to_string = function
  | In_memory s -> s
  | Mapped ba ->
      let n = Bigarray.Array1.dim ba in
      let b = Bytes.create n in
      for i = 0 to n - 1 do
        Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get ba i)
      done;
      Bytes.unsafe_to_string b

(* The lexer's view of an input: a mapping as is, a string copied once. *)
let bigstring_of_input = function
  | Mapped ba -> ba
  | In_memory s ->
      let n = String.length s in
      let ba = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set ba i (String.unsafe_get s i)
      done;
      ba

let read_all_channel ic = In_memory (In_channel.input_all ic)

(* Open a CIF input for parsing.  Regular files are memory-mapped —
   zero-copy: the lexer's cursor walks the mapping directly.  Anything
   else (a pipe, a FIFO, stdin via /dev/fd, a device) cannot be mapped and
   falls back to draining the stream into a string.  The fd is closed on
   every exit path — [Fun.protect] below — and closing it immediately is
   safe: a POSIX mapping survives its descriptor, and the mapping itself
   is released when the bigarray is collected.  Failures surface as
   [Sys_error], exactly like [open_in_bin]. *)
let open_file path =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        let st = Unix.fstat fd in
        if st.Unix.st_kind = Unix.S_REG && st.Unix.st_size > 0 then
          match
            Unix.map_file fd Bigarray.char Bigarray.c_layout false
              [| st.Unix.st_size |]
          with
          | genarray -> Mapped (Bigarray.array1_of_genarray genarray)
          | exception Unix.Unix_error _ ->
              (* exotic filesystems can refuse mmap; fall back to reading *)
              read_all_channel (Unix.in_channel_of_descr fd)
        else if st.Unix.st_kind = Unix.S_REG then In_memory ""
        else read_all_channel (Unix.in_channel_of_descr fd)
      with Unix.Unix_error (e, _, _) ->
        raise (Sys_error (path ^ ": " ^ Unix.error_message e)))

let parse_input input =
  Ace_trace.Trace.with_span "cif.parse" @@ fun () ->
  try parse (bigstring_of_input input)
  with Perror { position; message; _ } -> raise (Error { position; message })

let parse_input_lenient ?max_errors input =
  Ace_trace.Trace.with_span "cif.parse" @@ fun () ->
  let collector = Collector.create ?max_errors () in
  let file = parse ~collector (bigstring_of_input input) in
  (file, Collector.to_list collector)

let parse_string src = parse_input (In_memory src)
let parse_string_lenient ?max_errors src = parse_input_lenient ?max_errors (In_memory src)
let parse_file path = parse_input (open_file path)

let describe_error ~source ~position ~message =
  let line, col = Diag.line_col ~source position in
  Printf.sprintf "CIF parse error at line %d, column %d: %s" line col message
