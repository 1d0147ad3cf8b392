(* stream_order_golden — pins the lazy stream's pop order.

   Usage: stream_order_golden FILE.cif ...

   For every given file and every [Chips.paper_suite] chip at scale 0.05,
   drains [Stream] twice — over the whole chip and through a window over
   its left half — and prints one line per run: the MD5 of the pop
   sequence.  The digest covers layer and box of every pop, in order, and
   the stop y, [pending] and [expansions] after each stop, so it pins the
   (key, seq) FIFO tie-break, which wirelist identity alone may not. *)

module Design = Ace_cif.Design
module Stream = Ace_cif.Stream
module Box = Ace_geom.Box

let scale = 0.05

let digest design window =
  let s = Stream.create ?window design in
  let buf = Buffer.create 4096 in
  let rec go () =
    match Stream.peek_top s with
    | None -> ()
    | Some y ->
        List.iter
          (fun (lyr, (b : Box.t)) ->
            Printf.bprintf buf "%d %d %d %d %d\n" (Ace_tech.Layer.index lyr) b.l
              b.b b.r b.t)
          (Stream.pop_at s y);
        Printf.bprintf buf "stop %d %d %d\n" y (Stream.pending s)
          (Stream.expansions s);
        go ()
  in
  go ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let left_half design =
  match Design.bbox design with
  | Some bb when bb.Box.r - bb.Box.l >= 2 ->
      Some (Box.make ~l:bb.l ~b:bb.b ~r:((bb.l + bb.r) / 2) ~t:bb.t)
  | Some _ | None -> None

let report name design =
  Printf.printf "%s flat %s\n" name (digest design None);
  match left_half design with
  | Some w -> Printf.printf "%s half %s\n" name (digest design (Some w))
  | None -> Printf.printf "%s half -\n" name

let () =
  List.iter
    (fun path ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      let ast, _ = Ace_cif.Parser.parse_string_lenient text in
      report (Filename.basename path) (fst (Design.of_ast_lenient ast)))
    (List.sort compare (List.tl (Array.to_list Sys.argv)));
  List.iter
    (fun (r : Ace_workloads.Chips.recipe) -> report r.chip_name (r.build ~scale))
    Ace_workloads.Chips.paper_suite
