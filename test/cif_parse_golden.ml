(* cif_parse_golden — pins the CIF parser's observable behaviour.

   Usage: cif_parse_golden FILE.cif ...

   Parses every given file plus 2,000 seeded mutants of them (the fuzzer's
   alphabet and mutation ops) and prints one line per input:

     NAME AST-MD5 | CODE START STOP "MESSAGE" | ... | STRICT

   AST-MD5 is the MD5 of [Marshal.to_string ast [No_sharing]] from the
   lenient parse; each diagnostic follows as code, byte span ("- -" when
   it has none) and message; STRICT is "ok" or "error POS MESSAGE" from
   the strict parse.  The output is diffed against a committed golden, so
   any change to the AST, a diagnostic or a recovery point shows up. *)

module Parser = Ace_cif.Parser
module Diag = Ace_diag.Diag

let n_mutants = 2000
let seed = 1983

let slurp path = In_channel.with_open_bin path In_channel.input_all

let line name text =
  let ast, diags = Parser.parse_string_lenient text in
  let buf = Buffer.create 256 in
  Buffer.add_string buf name;
  Buffer.add_char buf ' ';
  Buffer.add_string buf
    (Digest.to_hex (Digest.string (Marshal.to_string ast [ Marshal.No_sharing ])));
  List.iter
    (fun (d : Diag.t) ->
      let span =
        match d.span with
        | Some { start; stop } -> Printf.sprintf "%d %d" start stop
        | None -> "- -"
      in
      Printf.bprintf buf " | %s %s %S" d.code span d.message)
    diags;
  (match Parser.parse_string text with
  | _ -> Buffer.add_string buf " | ok"
  | exception Parser.Error { position; message } ->
      Printf.bprintf buf " | error %d %S" position message);
  print_endline (Buffer.contents buf)

let () =
  let files =
    List.sort compare (List.tl (Array.to_list Sys.argv))
  in
  let corpus = Array.of_list (List.map slurp files) in
  List.iteri (fun i f -> line (Filename.basename f) corpus.(i)) files;
  let rng = Random.State.make [| seed |] in
  for i = 1 to n_mutants do
    let src = corpus.(Random.State.int rng (Array.length corpus)) in
    line (Printf.sprintf "mutant-%d" i) (Cif_mutate.mutate rng src)
  done
