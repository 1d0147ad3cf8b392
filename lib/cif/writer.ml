open Ace_geom

(* Decimal integer straight into the buffer, no intermediate string. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

(* " x y" *)
let add_pair buf x y =
  Buffer.add_char buf ' ';
  add_int buf x;
  Buffer.add_char buf ' ';
  add_int buf y

let add_transform_op buf = function
  | Ast.Translate (dx, dy) ->
      Buffer.add_char buf 'T';
      add_pair buf dx dy
  | Ast.Mirror_x -> Buffer.add_string buf "M X"
  | Ast.Mirror_y -> Buffer.add_string buf "M Y"
  | Ast.Rotate (a, b) ->
      Buffer.add_char buf 'R';
      add_pair buf a b

let add_points buf pts =
  List.iter (fun (p : Point.t) -> add_pair buf p.x p.y) pts

let add_shape buf layer shape =
  Buffer.add_string buf "L ";
  Buffer.add_string buf layer;
  Buffer.add_string buf "; ";
  (match shape with
  | Ast.Box { length; width; center; direction } -> (
      Buffer.add_char buf 'B';
      add_pair buf length width;
      add_pair buf center.x center.y;
      match direction with None -> () | Some d -> add_pair buf d.x d.y)
  | Ast.Polygon pts ->
      Buffer.add_char buf 'P';
      add_points buf pts
  | Ast.Wire { width; path } ->
      Buffer.add_string buf "W ";
      add_int buf width;
      add_points buf path
  | Ast.Round_flash { diameter; center } ->
      Buffer.add_string buf "R ";
      add_int buf diameter;
      add_pair buf center.x center.y);
  Buffer.add_string buf ";\n"

let element_to_buffer buf = function
  | Ast.Shape { layer; shape } -> add_shape buf layer shape
  | Ast.Call { symbol; ops } ->
      Buffer.add_string buf "C ";
      add_int buf symbol;
      List.iter
        (fun op ->
          Buffer.add_char buf ' ';
          add_transform_op buf op)
        ops;
      Buffer.add_string buf ";\n"
  | Ast.Label { name; position; layer } ->
      Buffer.add_string buf "94 ";
      Buffer.add_string buf name;
      add_pair buf position.x position.y;
      (match layer with
      | None -> ()
      | Some l ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf l);
      Buffer.add_string buf ";\n"
  | Ast.Comment_ext text ->
      Buffer.add_string buf text;
      Buffer.add_string buf ";\n"

let to_string (file : Ast.file) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (def : Ast.symbol_def) ->
      Buffer.add_string buf "DS ";
      add_int buf def.id;
      Buffer.add_string buf " 1 1;\n";
      (match def.name with
      | Some name ->
          Buffer.add_string buf "9 ";
          Buffer.add_string buf name;
          Buffer.add_string buf ";\n"
      | None -> ());
      List.iter (element_to_buffer buf) def.elements;
      Buffer.add_string buf "DF;\n")
    file.symbols;
  List.iter (element_to_buffer buf) file.top_level;
  Buffer.add_string buf "E\n";
  Buffer.contents buf

let to_file path file =
  let oc = open_out path in
  output_string oc (to_string file);
  close_out oc
