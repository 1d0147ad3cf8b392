(* Check the two ledgers that `ace -s` prints for a flat run.  Each is a
   header followed by exactly its slug lines, in order, whose seconds add
   up to the header's wall (within the %.6f print rounding):

     ledger (extract wall W s):  front_end list_update devices output
                                 unattributed
     ledger (process wall W s):  parse design extract format write
                                 unattributed

   Usage: ledger_check STATS_FILE   (the captured stderr of `ace -s`) *)

let ledgers =
  [
    ("extract", [ "front_end"; "list_update"; "devices"; "output"; "unattributed" ]);
    ("process", [ "parse"; "design"; "extract"; "format"; "write"; "unattributed" ]);
  ]

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("ledger_check: " ^ m); exit 1) fmt

let check file lines (name, slugs) =
  let header = Printf.sprintf "ledger (%s wall %%f s):%%!" name in
  let rec find_header = function
    | [] -> fail "no %s ledger header in %s" name file
    | l :: rest -> (
        match Scanf.sscanf_opt l (Scanf.format_from_string header "%f") Fun.id with
        | Some wall -> (wall, rest)
        | None -> find_header rest)
  in
  let wall, rest = find_header lines in
  let rec take slugs lines acc =
    match (slugs, lines) with
    | [], _ -> acc
    | slug :: more, l :: rest -> (
        match Scanf.sscanf_opt l " %s %f s%!" (fun s v -> (s, v)) with
        | Some (s, v) when s = slug -> take more rest (acc +. v)
        | _ -> fail "%s ledger: expected the %s line, got %S" name slug l)
    | slug :: _, [] -> fail "%s ledger: missing %s line" name slug
  in
  let sum = take slugs rest 0.0 in
  (* up to seven values printed to 1e-6: rounding moves the sum by < 4e-6 *)
  if Float.abs (sum -. wall) > 5e-6 then
    fail "%s ledger: lines sum to %.6f s, wall is %.6f s" name sum wall;
  Printf.printf "%s ledger ok: %d lines sum to the %.6f s wall\n" name
    (List.length slugs) wall

let () =
  let file = Sys.argv.(1) in
  let lines = In_channel.with_open_text file In_channel.input_lines in
  List.iter (check file lines) ledgers
