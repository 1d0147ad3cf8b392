open Ace_geom
open Ace_tech

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Ace_cif.Parser.parse_string
let design_of s = Ace_cif.Design.of_ast (parse s)

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_box () =
  let f = parse "L ND; B 4 2 10 20; E" in
  match f.Ace_cif.Ast.top_level with
  | [ Ace_cif.Ast.Shape { layer = "ND"; shape = Ace_cif.Ast.Box b } ] ->
      check_int "length" 4 b.length;
      check_int "width" 2 b.width;
      check "center" true (Point.equal b.center (Point.make 10 20));
      check "no direction" true (b.direction = None)
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_box_direction () =
  let f = parse "L NP; B 4 2 0 0 0 -1; E" in
  match f.Ace_cif.Ast.top_level with
  | [ Ace_cif.Ast.Shape { shape = Ace_cif.Ast.Box b; _ } ] ->
      check "direction" true (b.direction = Some (Point.make 0 (-1)))
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_polygon_wire_flash () =
  let f = parse "L NM; P 0 0 10 0 10 10; W 2 0 0 5 0; R 6 3 3; E" in
  check_int "three shapes" 3 (List.length f.Ace_cif.Ast.top_level)

let test_parse_separators () =
  (* CIF allows exotic blank characters and comma separators *)
  let f = parse "L ND;\n  B4 2 10,20;\n(a (nested) comment;) E" in
  check_int "one shape" 1 (List.length f.Ace_cif.Ast.top_level)

let test_parse_symbols () =
  let f = parse "DS 1; 9 cell; L ND; B 2 2 0 0; DF; C 1 T 10 0; E" in
  (match f.Ace_cif.Ast.symbols with
  | [ { Ace_cif.Ast.id = 1; name = Some "cell"; elements = [ _ ] } ] -> ()
  | _ -> Alcotest.fail "symbol not parsed");
  match f.Ace_cif.Ast.top_level with
  | [ Ace_cif.Ast.Call { symbol = 1; ops = [ Ace_cif.Ast.Translate (10, 0) ] } ]
    -> ()
  | _ -> Alcotest.fail "call not parsed"

let test_parse_scale () =
  (* DS 1 2 1: distances inside are doubled *)
  let f = parse "DS 1 2 1; L ND; B 2 2 5 5; DF; C 1; E" in
  match f.Ace_cif.Ast.symbols with
  | [ { Ace_cif.Ast.elements = [ Ace_cif.Ast.Shape { shape = Ace_cif.Ast.Box b; _ } ]; _ } ] ->
      check_int "scaled length" 4 b.length;
      check "scaled center" true (Point.equal b.center (Point.make 10 10))
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_transform_chain () =
  let f = parse "DS 1; L ND; B 2 2 0 0; DF; C 1 M X T 4 0 R 0 1; E" in
  match f.Ace_cif.Ast.top_level with
  | [ Ace_cif.Ast.Call { ops; _ } ] ->
      check_int "three ops" 3 (List.length ops)
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_label () =
  let f = parse "L NM; B 2 2 0 0; 94 VDD 0 0 NM; 94 foo -3 4; E" in
  let labels =
    List.filter_map
      (function
        | Ace_cif.Ast.Label { name; position; layer } ->
            Some (name, position, layer)
        | Ace_cif.Ast.Shape _ | Ace_cif.Ast.Call _ | Ace_cif.Ast.Comment_ext _ ->
            None)
      f.Ace_cif.Ast.top_level
  in
  check_int "two labels" 2 (List.length labels);
  match labels with
  | [ (_, _, layer_a); (_, pos_b, layer_b) ] ->
      check "named layer" true (layer_a = Some "NM");
      check "layerless" true (layer_b = None);
      check "negative coords" true (Point.equal pos_b (Point.make (-3) 4))
  | _ -> assert false

let test_parse_user_extension () =
  let f = parse "0 arbitrary user text 1 2 3; L ND; B 2 2 0 0; E" in
  check_int "kept verbatim" 2 (List.length f.Ace_cif.Ast.top_level)

let expect_parse_error src =
  match parse src with
  | exception Ace_cif.Parser.Error _ -> ()
  | _ -> Alcotest.failf "expected a parse error for %S" src

let test_parse_errors () =
  expect_parse_error "L ND; B 2 2 0; E";
  (* missing coordinate *)
  expect_parse_error "B 2 2 0 0; E";
  (* geometry before any layer *)
  expect_parse_error "DS 1; L ND; B 2 2 0 0; E";
  (* unterminated definition *)
  expect_parse_error "DF; E";
  (* DF without DS *)
  expect_parse_error "L ND; B 2 2 0 0;";
  (* missing E *)
  expect_parse_error "Q 1 2; E";
  (* unknown command *)
  expect_parse_error "(unterminated comment E"

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_describe_error () =
  let src = "L ND;\nB 2 2 0;\nE" in
  match parse src with
  | exception Ace_cif.Parser.Error { position; message } ->
      let d = Ace_cif.Parser.describe_error ~source:src ~position ~message in
      check "mentions line 2" true (contains_substring d "line 2")
  | _ -> Alcotest.fail "expected error"

(* Lexer edge cases: integer range, leading zeros, exotic blanks and an
   unterminated nested comment at end of input. *)

let lenient = Ace_cif.Parser.parse_string_lenient

let strict_error src =
  match parse src with
  | exception Ace_cif.Parser.Error { position; message } -> Some (position, message)
  | _ -> None

let test_parse_max_int () =
  match (parse "C 1 T 4611686018427387903 -4611686018427387903; E").top_level with
  | [ Ace_cif.Ast.Call { ops = [ Ace_cif.Ast.Translate (dx, dy) ]; _ } ] ->
      check_int "max_int" max_int dx;
      check_int "-max_int" (-max_int) dy
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_overflow () =
  let expect src start literal =
    let message = Printf.sprintf "integer literal '%s' out of range" literal in
    check (src ^ " strict") true (strict_error src = Some (start, message));
    match lenient src with
    | _, [ d ] ->
        check (src ^ " code") true (d.Ace_diag.Diag.code = "cif-integer-overflow");
        check (src ^ " span") true
          (d.span = Some { Ace_diag.Diag.start; stop = start + 1 });
        check (src ^ " message") true (d.message = message)
    | _, diags -> Alcotest.failf "%s: %d diagnostics" src (List.length diags)
  in
  expect "C 1 T 4611686018427387904 0; E" 6 "4611686018427387904";
  (* the sign is consumed before the digits: the span starts at them *)
  expect "C 1 T -4611686018427387904 0; E" 7 "-4611686018427387904";
  expect "C 1 T 0 000099999999999999999999; E" 8 "000099999999999999999999"

let test_parse_leading_zeros () =
  match (parse "C 0001 T 007 -0000; E").top_level with
  | [ Ace_cif.Ast.Call { symbol = 1; ops = [ Ace_cif.Ast.Translate (7, 0) ] } ] ->
      ()
  | _ -> Alcotest.fail "unexpected AST"

let test_parse_exotic_blanks () =
  let plain = parse "L ND; B 4 2 10 20; E" in
  check "NUL and high bytes are blanks" true
    (parse "L\000ND;\128B 4\2552\20010\x7f20;\000E\255" = plain)

let test_unterminated_nested_comment () =
  let src = "L ND; B 2 2 0 0; (outer (inner) still open" in
  check "strict" true (strict_error src = Some (17, "unterminated comment"));
  match lenient src with
  | _, d :: _ ->
      check "code" true (d.Ace_diag.Diag.code = "cif-unterminated-comment");
      check "span" true (d.span = Some { Ace_diag.Diag.start = 17; stop = 18 })
  | _, [] -> Alcotest.fail "not diagnosed"

(* ------------------------------------------------------------------ *)
(* Allocation budgets (noise-free partners of the front-end walls)      *)
(* ------------------------------------------------------------------ *)

(* cherry at scale 1.0, written to a real file so the parse goes through
   the mapped path [ace] uses *)
let cherry_input () =
  let r =
    List.find
      (fun (r : Ace_workloads.Chips.recipe) -> r.chip_name = "cherry")
      Ace_workloads.Chips.paper_suite
  in
  let text = Ace_cif.Writer.to_string (Ace_cif.Design.ast (r.build ~scale:1.0)) in
  let path = Filename.temp_file "ace_cherry" ".cif" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Ace_cif.Parser.open_file path)

let minor_words f =
  let before = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. before)

let test_parse_alloc () =
  let input = cherry_input () in
  let (_, diags), words =
    minor_words (fun () -> Ace_cif.Parser.parse_input_lenient input)
  in
  check "clean" true (diags = []);
  let per_byte = words /. float_of_int (Ace_cif.Parser.input_length input) in
  if per_byte > 1.5 then
    Alcotest.failf "lenient parse: %.2f minor words per byte (budget 1.5)" per_byte

let test_stream_alloc () =
  let ast, _ = Ace_cif.Parser.parse_input_lenient (cherry_input ()) in
  let design = Ace_cif.Design.of_ast ast in
  let s = Ace_cif.Stream.create design in
  let boxes, words =
    minor_words (fun () ->
        let rec go n =
          match Ace_cif.Stream.peek_top s with
          | None -> n
          | Some y -> go (n + List.length (Ace_cif.Stream.pop_at s y))
        in
        go 0)
  in
  check "boxes popped" true (boxes > 1_000);
  let per_box = words /. float_of_int boxes in
  if per_box > 36.0 then
    Alcotest.failf "stream drain: %.1f minor words per box over %d boxes (budget 36)"
      per_box boxes

(* ------------------------------------------------------------------ *)
(* Writer round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  Tutil.qtest ~count:200 "writer/parser round-trip" Tutil.gen_design
    (fun file ->
      let text = Ace_cif.Writer.to_string file in
      let file' = parse text in
      file = file')

let test_roundtrip_labels () =
  let src = "DS 1; L ND; B 2 2 0 0; 94 OUT 1 1 ND; DF; C 1 T 4 4; 94 IN 0 0; E" in
  let f = parse src in
  let f' = parse (Ace_cif.Writer.to_string f) in
  check "stable" true (f = f')

(* The writer as it was, on Printf: the byte-for-byte reference for the
   Buffer-only writer, which cache keys depend on. *)
module Printf_writer = struct
  open Ace_cif

  let op_to_string = function
    | Ast.Translate (dx, dy) -> Printf.sprintf "T %d %d" dx dy
    | Ast.Mirror_x -> "M X"
    | Ast.Mirror_y -> "M Y"
    | Ast.Rotate (a, b) -> Printf.sprintf "R %d %d" a b

  let add_points buf pts =
    List.iter (fun (p : Point.t) -> Printf.bprintf buf " %d %d" p.x p.y) pts

  let add_shape buf layer shape =
    Printf.bprintf buf "L %s; " layer;
    (match shape with
    | Ast.Box { length; width; center; direction } -> (
        Printf.bprintf buf "B %d %d %d %d" length width center.x center.y;
        match direction with
        | None -> ()
        | Some d -> Printf.bprintf buf " %d %d" d.x d.y)
    | Ast.Polygon pts ->
        Buffer.add_char buf 'P';
        add_points buf pts
    | Ast.Wire { width; path } ->
        Printf.bprintf buf "W %d" width;
        add_points buf path
    | Ast.Round_flash { diameter; center } ->
        Printf.bprintf buf "R %d %d %d" diameter center.x center.y);
    Buffer.add_string buf ";\n"

  let element buf = function
    | Ast.Shape { layer; shape } -> add_shape buf layer shape
    | Ast.Call { symbol; ops } ->
        Printf.bprintf buf "C %d" symbol;
        List.iter (fun op -> Printf.bprintf buf " %s" (op_to_string op)) ops;
        Buffer.add_string buf ";\n"
    | Ast.Label { name; position; layer } ->
        Printf.bprintf buf "94 %s %d %d" name position.x position.y;
        (match layer with None -> () | Some l -> Printf.bprintf buf " %s" l);
        Buffer.add_string buf ";\n"
    | Ast.Comment_ext text -> Printf.bprintf buf "%s;\n" text

  let to_string (file : Ast.file) =
    let buf = Buffer.create 4096 in
    List.iter
      (fun (def : Ast.symbol_def) ->
        Printf.bprintf buf "DS %d 1 1;\n" def.id;
        (match def.name with
        | Some name -> Printf.bprintf buf "9 %s;\n" name
        | None -> ());
        List.iter (element buf) def.elements;
        Buffer.add_string buf "DF;\n")
      file.symbols;
    List.iter (element buf) file.top_level;
    Buffer.add_string buf "E\n";
    Buffer.contents buf
end

(* Arbitrary ASTs, not only parseable ones: every element kind, all four
   transform ops, optional directions, names and label layers, and the
   integer extremes. *)
let gen_any_file =
  let open QCheck2.Gen in
  let module Ast = Ace_cif.Ast in
  let num =
    frequency
      [
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 9; 10 ]);
        (4, int_range (-1000) 1000);
        (2, int);
      ]
  in
  let point = map2 Point.make num num in
  let word = string_size ~gen:(char_range 'A' 'z') (int_range 0 6) in
  let shape =
    oneof
      [
        map2
          (fun (length, width) (center, direction) ->
            Ast.Box { length; width; center; direction })
          (pair num num) (pair point (option point));
        map (fun pts -> Ast.Polygon pts) (list_size (int_range 0 6) point);
        map2
          (fun width path -> Ast.Wire { width; path })
          num
          (list_size (int_range 0 6) point);
        map2
          (fun diameter center -> Ast.Round_flash { diameter; center })
          num point;
      ]
  in
  let op =
    oneof
      [
        map2 (fun x y -> Ast.Translate (x, y)) num num;
        return Ast.Mirror_x;
        return Ast.Mirror_y;
        map2 (fun a b -> Ast.Rotate (a, b)) num num;
      ]
  in
  let element =
    oneof
      [
        map2 (fun layer shape -> Ast.Shape { layer; shape }) word shape;
        map2
          (fun symbol ops -> Ast.Call { symbol; ops })
          num
          (list_size (int_range 0 4) op);
        map3
          (fun name position layer -> Ast.Label { name; position; layer })
          word point (option word);
        map (fun t -> Ast.Comment_ext ("5 " ^ t)) word;
      ]
  in
  let elements = list_size (int_range 0 8) element in
  let symbol =
    map3
      (fun id name elements -> { Ast.id; name; elements })
      num (option word) elements
  in
  map2
    (fun symbols top_level -> { Ast.symbols; top_level })
    (list_size (int_range 0 3) symbol)
    elements

let prop_writer_matches_printf =
  Tutil.qtest ~count:500 "writer equals the Printf writer on random ASTs"
    gen_any_file (fun file ->
      Ace_cif.Writer.to_string file = Printf_writer.to_string file)

let test_writer_matches_printf_corpus () =
  let dir = List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ] in
  let cifs =
    List.filter
      (fun f -> Filename.check_suffix f ".cif")
      (Array.to_list (Sys.readdir dir))
  in
  check "corpus found" true (cifs <> []);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      let ast, _ = Ace_cif.Parser.parse_string_lenient text in
      if Ace_cif.Writer.to_string ast <> Printf_writer.to_string ast then
        Alcotest.failf "%s: writer output differs from the Printf writer" f)
    cifs

(* ------------------------------------------------------------------ *)
(* Design semantic checks                                               *)
(* ------------------------------------------------------------------ *)

let expect_semantic_error src =
  match design_of src with
  | exception Ace_cif.Design.Semantic_error _ -> ()
  | _ -> Alcotest.failf "expected a semantic error for %S" src

let test_semantic_errors () =
  expect_semantic_error "L XX; B 2 2 0 0; E";
  (* unknown layer *)
  expect_semantic_error "C 7; E";
  (* undefined symbol *)
  expect_semantic_error "DS 1; C 1; DF; C 1; E";
  (* recursion *)
  expect_semantic_error "DS 1; L ND; B 2 2 0 0; DF; DS 1; DF; C 1; E";
  (* duplicate definition *)
  expect_semantic_error "DS 1; L ND; B 2 2 0 0; DF; C 1 R 1 1; E"
(* 45-degree rotation: rejected when the transform is evaluated *)

let test_mutual_recursion () =
  (* DD lets mutually-referencing text parse; of_ast must still reject *)
  match
    Ace_cif.Design.of_ast
      {
        Ace_cif.Ast.symbols =
          [
            { Ace_cif.Ast.id = 1; name = None;
              elements = [ Ace_cif.Ast.Call { symbol = 2; ops = [] } ] };
            { Ace_cif.Ast.id = 2; name = None;
              elements = [ Ace_cif.Ast.Call { symbol = 1; ops = [] } ] };
          ];
        top_level = [ Ace_cif.Ast.Call { symbol = 1; ops = [] } ];
      }
  with
  | exception Ace_cif.Design.Semantic_error _ -> ()
  | _ -> Alcotest.fail "mutual recursion not detected"

let test_bbox_and_counts () =
  let d =
    design_of
      "DS 1; L ND; B 4 4 0 0; B 2 2 10 10; DF; DS 2; C 1; C 1 T 20 0; DF; C 2; C 2 T 0 40; E"
  in
  check_int "boxes = 2 per cell x 2 cells x 2 arrays" 8
    (Ace_cif.Design.count_boxes d);
  check_int "instances" 6 (Ace_cif.Design.count_instances d);
  match Ace_cif.Design.bbox d with
  | Some bb ->
      check_int "bbox l" (-2) bb.Box.l;
      check_int "bbox r" 31 bb.Box.r
  | None -> Alcotest.fail "no bbox"

(* ------------------------------------------------------------------ *)
(* Flatten and Stream agreement                                         *)
(* ------------------------------------------------------------------ *)

let normalize boxes =
  List.sort Stdlib.compare
    (List.map (fun (lyr, bx) -> (Layer.index lyr, bx)) boxes)

let prop_stream_matches_flatten =
  Tutil.qtest ~count:200 "lazy stream yields exactly the flattened geometry"
    Tutil.gen_design
    (fun file ->
      match Ace_cif.Design.of_ast file with
      | exception Ace_cif.Design.Semantic_error _ -> true (* skip *)
      | design ->
          let flat = Ace_cif.Flatten.flatten design in
          let streamed = Ace_cif.Stream.drain (Ace_cif.Stream.create design) in
          normalize flat = normalize streamed)

let prop_stream_sorted =
  Tutil.qtest ~count:100 "stream stops are strictly descending" Tutil.gen_design
    (fun file ->
      match Ace_cif.Design.of_ast file with
      | exception Ace_cif.Design.Semantic_error _ -> true
      | design ->
          let stream = Ace_cif.Stream.create design in
          let rec go last =
            match Ace_cif.Stream.peek_top stream with
            | None -> true
            | Some y ->
                let boxes = Ace_cif.Stream.pop_at stream y in
                List.for_all (fun (_, (b : Box.t)) -> b.t = y) boxes
                && (match last with None -> true | Some prev -> y < prev)
                && go (Some y)
          in
          go None)

let test_stream_lazy_expansion () =
  (* a symbol placed far below another is only expanded when reached *)
  let d =
    design_of
      "DS 1; L ND; B 2 2 0 0; DF; C 1; C 1 T 0 -1000; E"
  in
  let stream = Ace_cif.Stream.create d in
  (match Ace_cif.Stream.peek_top stream with
  | Some y -> check_int "first stop" 1 y
  | None -> Alcotest.fail "empty stream");
  ignore (Ace_cif.Stream.pop_at stream 1);
  check_int "only the reachable instance expanded so far" 1
    (Ace_cif.Stream.expansions stream);
  ignore (Ace_cif.Stream.drain stream);
  check_int "both expanded at the end" 2 (Ace_cif.Stream.expansions stream)

let test_labels_transformed () =
  let d =
    design_of "DS 1; L ND; B 2 2 0 0; 94 A 1 2 ND; DF; C 1 T 10 20; C 1 M X; E"
  in
  let labels = Ace_cif.Design.labels d in
  check_int "two instances of the label" 2 (List.length labels);
  let positions = List.map (fun (l : Ace_cif.Design.label) -> l.position) labels in
  check "translated" true (List.exists (Point.equal (Point.make 11 22)) positions);
  check "mirrored" true (List.exists (Point.equal (Point.make (-1) 2)) positions)

let test_dd_command () =
  (* DD n deletes definitions numbered >= n *)
  let f = parse "DS 1; L ND; B 2 2 0 0; DF; DS 5; L NP; B 2 2 0 0; DF; DD 5; C 1; E" in
  check_int "one symbol survives" 1 (List.length f.Ace_cif.Ast.symbols)

let test_comment_everywhere () =
  let f =
    parse "(header); L ND; (mid) B 2 2 (inline (nested)) 0 0; (tail) E"
  in
  check_int "one shape" 1 (List.length f.Ace_cif.Ast.top_level)

let test_call_without_transform () =
  let f = parse "DS 1; L ND; B 2 2 0 0; DF; C 1; E" in
  match f.Ace_cif.Ast.top_level with
  | [ Ace_cif.Ast.Call { ops = []; _ } ] -> ()
  | _ -> Alcotest.fail "expected a bare call"

let test_negative_everything () =
  let d = design_of "L ND; B 4 2 -10 -20; E" in
  match Ace_cif.Design.bbox d with
  | Some bb ->
      check_int "l" (-12) bb.Box.l;
      check_int "b" (-21) bb.Box.b
  | None -> Alcotest.fail "no bbox"

let test_stats () =
  let d = design_of "DS 1; L ND; B 4 2 2 1; L NP; B 2 6 5 1; DF; C 1; C 1 T 20 0; E" in
  let s = Ace_cif.Stats.of_design d in
  check_int "boxes" 4 s.Ace_cif.Stats.boxes;
  check_int "diffusion boxes" 2
    (List.assoc Layer.Diffusion s.Ace_cif.Stats.boxes_per_layer);
  check "mean width" true (abs_float (s.Ace_cif.Stats.mean_width -. 3.0) < 0.01);
  check_int "geometry area" (2 * (8 + 12)) s.Ace_cif.Stats.geometry_area;
  check_int "distinct tops" 2 s.Ace_cif.Stats.distinct_tops

let test_stats_empty () =
  let d = design_of "E" in
  let s = Ace_cif.Stats.of_design d in
  check_int "no boxes" 0 s.Ace_cif.Stats.boxes;
  check "zero density" true (s.Ace_cif.Stats.density = 0.0)

let test_sample_corpus () =
  (* the data/ corpus: parses, extracts, and HEXT agrees with ACE *)
  let dir =
    (* cwd differs between `dune runtest` (the build test dir) and
       `dune exec` (the project root) *)
    List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]
  in
  let files = Sys.readdir dir in
  let cifs =
    Array.to_list files
    |> List.filter (fun f ->
           Filename.check_suffix f ".cif"
           (* broken*.cif is the malformed-input corpus for the
              diagnostics tests; it does not parse strictly by design *)
           && not (String.starts_with ~prefix:"broken" f))
  in
  check "corpus present" true (List.length cifs >= 4);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let d =
        match Ace_cif.Parser.parse_file path with
        | ast -> Ace_cif.Design.of_ast ast
        | exception Ace_cif.Parser.Error _ ->
            Alcotest.failf "%s does not parse" f
      in
      let flat = Ace_core.Extractor.extract d in
      check (f ^ " extracts") true (Ace_netlist.Circuit.validate flat = []);
      let hc, _ = Ace_hext.Hext.extract_flat d in
      check (f ^ " hext agrees") true
        (Tutil.circuit_equal ~with_sizes:true flat hc))
    cifs

(* ------------------------------------------------------------------ *)
(* mmap lexer path                                                      *)
(* ------------------------------------------------------------------ *)

let data_dir () =
  List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every data/*.cif — including the broken corpus — must produce the same
   AST and the same diagnostics through the zero-copy mapped path as
   through the in-memory string path, strict and lenient. *)
let test_mmap_corpus () =
  let dir = data_dir () in
  let cifs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cif")
  in
  check "corpus present" true (List.length cifs >= 5);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let text = slurp path in
      let input = Ace_cif.Parser.open_file path in
      check (f ^ " is mapped") true (Ace_cif.Parser.input_is_mapped input);
      check_int (f ^ " mapped length") (String.length text)
        (Ace_cif.Parser.input_length input);
      check (f ^ " materializes identically") true
        (Ace_cif.Parser.input_to_string input = text);
      let ast_m, diags_m = Ace_cif.Parser.parse_input_lenient input in
      let ast_s, diags_s = Ace_cif.Parser.parse_string_lenient text in
      check (f ^ " lenient AST equal") true (ast_m = ast_s);
      check (f ^ " lenient diags equal") true (diags_m = diags_s);
      let strict i =
        match Ace_cif.Parser.parse_input i with
        | ast -> Ok ast
        | exception Ace_cif.Parser.Error { position; message } ->
            Error (position, message)
      in
      check (f ^ " strict outcome equal") true
        (strict input = strict (Ace_cif.Parser.input_of_string text)))
    cifs

(* Parse errors must not leak the mapped file's descriptor: repeating the
   open/parse cycle well past the default fd limit only works if every
   exit path (including the error one) closes the fd. *)
let test_mmap_broken_no_leak () =
  let path = Filename.concat (data_dir ()) "broken.cif" in
  let text = slurp path in
  let expected =
    match Ace_cif.Parser.parse_string text with
    | _ -> Alcotest.fail "broken.cif parsed strictly?"
    | exception Ace_cif.Parser.Error { position; message } -> (position, message)
  in
  for _ = 1 to 2048 do
    match Ace_cif.Parser.parse_file path with
    | _ -> Alcotest.fail "broken.cif parsed strictly via mmap?"
    | exception Ace_cif.Parser.Error { position; message } ->
        if (position, message) <> expected then
          Alcotest.fail "mmap parse error differs from string parse error"
  done;
  (* the lenient mapped path reports the identical recovery diagnostics *)
  let _, diags_m = Ace_cif.Parser.parse_input_lenient (Ace_cif.Parser.open_file path) in
  let _, diags_s = Ace_cif.Parser.parse_string_lenient text in
  check "broken.cif lenient diags equal" true (diags_m = diags_s)

let test_mmap_edge_files () =
  (* empty regular file: not mapped, parses like "" *)
  let empty = Filename.temp_file "ace_mmap" ".cif" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove empty with Sys_error _ -> ())
    (fun () ->
      let input = Ace_cif.Parser.open_file empty in
      check "empty file not mapped" false (Ace_cif.Parser.input_is_mapped input);
      check_int "empty length" 0 (Ace_cif.Parser.input_length input);
      check "empty fails like empty string" true
        (match Ace_cif.Parser.parse_input input with
        | _ -> false
        | exception Ace_cif.Parser.Error _ -> true));
  (* missing file: Sys_error, same contract as open_in_bin *)
  check "missing file raises Sys_error" true
    (match Ace_cif.Parser.open_file "no/such/file.cif" with
    | _ -> false
    | exception Sys_error _ -> true)

let () =
  Alcotest.run "cif"
    [
      ( "parser",
        [
          Alcotest.test_case "box" `Quick test_parse_box;
          Alcotest.test_case "box direction" `Quick test_parse_box_direction;
          Alcotest.test_case "polygon wire flash" `Quick test_parse_polygon_wire_flash;
          Alcotest.test_case "separators and comments" `Quick test_parse_separators;
          Alcotest.test_case "symbols and calls" `Quick test_parse_symbols;
          Alcotest.test_case "DS scale" `Quick test_parse_scale;
          Alcotest.test_case "transform chain" `Quick test_parse_transform_chain;
          Alcotest.test_case "labels" `Quick test_parse_label;
          Alcotest.test_case "user extension" `Quick test_parse_user_extension;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error description" `Quick test_describe_error;
          Alcotest.test_case "max_int literal" `Quick test_parse_max_int;
          Alcotest.test_case "integer overflow" `Quick test_parse_overflow;
          Alcotest.test_case "leading zeros" `Quick test_parse_leading_zeros;
          Alcotest.test_case "NUL and high bytes are blanks" `Quick
            test_parse_exotic_blanks;
          Alcotest.test_case "unterminated nested comment" `Quick
            test_unterminated_nested_comment;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "parse words per byte" `Quick test_parse_alloc;
          Alcotest.test_case "stream words per box" `Quick test_stream_alloc;
        ] );
      ( "writer",
        [
          prop_roundtrip;
          Alcotest.test_case "labels round-trip" `Quick test_roundtrip_labels;
          prop_writer_matches_printf;
          Alcotest.test_case "corpus equals the Printf writer" `Quick
            test_writer_matches_printf_corpus;
        ] );
      ( "design",
        [
          Alcotest.test_case "semantic errors" `Quick test_semantic_errors;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
          Alcotest.test_case "bbox and counts" `Quick test_bbox_and_counts;
          Alcotest.test_case "labels transformed" `Quick test_labels_transformed;
        ] );
      ( "stream",
        [
          prop_stream_matches_flatten;
          prop_stream_sorted;
          Alcotest.test_case "lazy expansion" `Quick test_stream_lazy_expansion;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counts" `Quick test_stats;
          Alcotest.test_case "empty design" `Quick test_stats_empty;
        ] );
      ( "corpus",
        [ Alcotest.test_case "sample files" `Quick test_sample_corpus ] );
      ( "mmap",
        [
          Alcotest.test_case "corpus equivalence" `Quick test_mmap_corpus;
          Alcotest.test_case "broken.cif: errors + no fd leak" `Quick
            test_mmap_broken_no_leak;
          Alcotest.test_case "empty and missing files" `Quick
            test_mmap_edge_files;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "DD command" `Quick test_dd_command;
          Alcotest.test_case "comments everywhere" `Quick test_comment_everywhere;
          Alcotest.test_case "bare call" `Quick test_call_without_transform;
          Alcotest.test_case "negative coordinates" `Quick test_negative_everything;
        ] );
    ]
