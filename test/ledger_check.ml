(* Check the phase ledger that `ace -s` prints for a flat run: the header
   "ledger (extract wall W s):" is followed by exactly the lines
   front_end, list_update, devices, output and unattributed, in that
   order, and their seconds add up to W (within the %.6f print rounding).

   Usage: ledger_check STATS_FILE   (the captured stderr of `ace -s`) *)

let slugs = [ "front_end"; "list_update"; "devices"; "output"; "unattributed" ]

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("ledger_check: " ^ m); exit 1) fmt

let () =
  let file = Sys.argv.(1) in
  let lines = In_channel.with_open_text file In_channel.input_lines in
  let rec find_header = function
    | [] -> fail "no ledger header in %s" file
    | l :: rest -> (
        match Scanf.sscanf_opt l "ledger (extract wall %f s):%!" Fun.id with
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
        | _ -> fail "expected the %s line, got %S" slug l)
    | slug :: _, [] -> fail "missing %s line" slug
  in
  let sum = take slugs rest 0.0 in
  (* six values printed to 1e-6: rounding moves the sum by < 3e-6 *)
  if Float.abs (sum -. wall) > 5e-6 then
    fail "phases sum to %.6f s, wall is %.6f s" sum wall;
  Printf.printf "ledger ok: %d lines sum to the %.6f s wall\n"
    (List.length slugs) wall
