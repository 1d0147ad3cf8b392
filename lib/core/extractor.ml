open Ace_geom
open Ace_tech
open Ace_netlist

type stats = {
  boxes : int;
  stops : int;
  max_active : int;
  timing : Timing.t;
  warnings : Ace_diag.Diag.t list;
}

(* The transistor sizing rule of ACE §3: source edge = perimeter along
   which the source net touches the channel; W = mean(source edge, drain
   edge); L = area / W. *)
let channel_terminals ~gate ~area ~contacts =
  (* longest edges first; ties broken by the edge's geometric position so
     flat and hierarchical extraction always agree *)
  let contacts =
    List.sort
      (fun (_, la, (pa : Point.t), sa) (_, lb, (pb : Point.t), sb) ->
        let c = Int.compare lb la in
        if c <> 0 then c else Engine.compare_edge_key pa.x pa.y sa pb.x pb.y sb)
      contacts
  in
  let source, drain, width =
    match contacts with
    | (n1, l1, _, _) :: (n2, l2, _, _) :: _ -> (n1, n2, (l1 + l2) / 2)
    | [ (n1, l1, _, _) ] -> (n1, n1, l1 / 2)
    | [] ->
        (* floating channel; keep indices valid, let the checker flag it *)
        (gate, gate, max 1 (int_of_float (sqrt (float_of_int area))))
  in
  let width = max 1 width in
  let length = max 1 (area / width) in
  (source, drain, width, length)

(* [dense] maps every element (not just roots) to its class, so a
   terminal resolves with one array read. *)
let resolve_device dense (data : Engine.device_data) =
  let gate = if data.gate >= 0 then dense.(data.gate) else 0 in
  let contacts =
    List.map (fun (n, l, p, side) -> (dense.(n), l, p, side)) data.contacts
  in
  let source, drain, width, length =
    channel_terminals ~gate ~area:data.area ~contacts
  in
  let dtype = Nmos.channel_type ~implanted:(2 * data.implant_area >= data.area) in
  {
    Circuit.dtype;
    gate;
    source;
    drain;
    length;
    width;
    location = Box.min_corner data.bbox;
    geometry = List.map (fun bx -> (Layer.Diffusion, bx)) data.channel_geometry;
  }

(* Location (y, then x), then every other field: a total order, so the
   device numbering never depends on the order the devices arrive in —
   two distinct channels can share a bbox corner. *)
let device_order (a : Circuit.device) (b : Circuit.device) =
  match Point.compare_yx a.location b.location with
  | 0 -> Stdlib.compare a b
  | c -> c

let circuit_of_raw ~name ~include_partial (raw : Engine.raw) =
  let nets = raw.nets in
  let dense = Union_find.compress nets in
  let class_count = Union_find.class_count nets in
  let names = Array.make class_count [] in
  List.iter
    (fun (e, n) ->
      let c = dense.(e) in
      names.(c) <- n :: names.(c))
    raw.net_names;
  (* location: the creation point of the earliest (topmost-created) element
     of each class — element ids ascend in creation order, so the first
     element seen per class wins *)
  let loc_x = Array.make class_count 0 and loc_y = Array.make class_count 0 in
  let located = Array.make class_count false in
  for e = 0 to Array.length raw.net_x - 1 do
    let c = dense.(e) in
    if not located.(c) then begin
      located.(c) <- true;
      loc_x.(c) <- raw.net_x.(e);
      loc_y.(c) <- raw.net_y.(e)
    end
  done;
  let geometry = Array.make class_count [] in
  Hashtbl.iter
    (fun e boxes ->
      let c = dense.(e) in
      geometry.(c) <- boxes @ geometry.(c))
    raw.net_geometry;
  (* order nets by descending location y (the figures list top nets first) *)
  let order = Array.init class_count (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Int.compare loc_y.(b) loc_y.(a) in
      if c <> 0 then c else Int.compare loc_x.(a) loc_x.(b))
    order;
  let position = Array.make class_count 0 in
  Array.iteri (fun rank c -> position.(c) <- rank) order;
  let nets_arr =
    Array.map
      (fun c ->
        let coalesce boxes =
          List.concat_map
            (fun layer ->
              let mine =
                List.filter_map
                  (fun (l, b) -> if Layer.equal l layer then Some b else None)
                  boxes
              in
              List.map (fun b -> (layer, b)) (Poly.coalesce_columns mine))
            Layer.conducting_layers
        in
        {
          Circuit.names = List.sort_uniq String.compare names.(c);
          location = Point.make loc_x.(c) loc_y.(c);
          geometry = (match geometry.(c) with [] -> [] | g -> coalesce g);
        })
      order
  in
  (* dense-with-ordering mapping for terminals *)
  let dense_ordered = Array.map (fun c -> position.(c)) dense in
  let devices =
    raw.devices
    |> List.filter (fun (_, (d : Engine.device_data)) ->
           include_partial || not d.touches_boundary)
    |> List.map (fun (_, d) -> resolve_device dense_ordered d)
    |> List.sort device_order
    |> Array.of_list
  in
  { Circuit.name; devices; nets = nets_arr }

(* The one renderer of label anomalies.  Every scan — flat, a tile, a
   baseline — reports the same facts (which labels bound nowhere, which
   y range it covered), so flat and tiled runs word and order their
   warnings alike whenever they agree on those facts. *)
let label_warnings ~y_extent labels =
  List.map
    (fun (lab : Ace_cif.Design.label) ->
      let y = lab.position.Point.y in
      let where =
        match y_extent with
        | Some (_, top) when y >= top -> "lies above all geometry"
        | Some (bottom, _) when y >= bottom -> "touches no conducting geometry"
        | _ -> "lies below all geometry"
      in
      Ace_diag.Diag.warning ~code:"extract-anomaly"
        (Printf.sprintf "label %S at (%d,%d) %s" lab.name lab.position.Point.x y
           where))
    labels

let extract_with_stats ?(cancel = Cancel.never) ?(emit_geometry = false)
    ?(name = "chip") design =
  let stream = Ace_cif.Stream.create design in
  let labels = Ace_cif.Stream.labels stream in
  let source = Engine.source_of_stream ~cancel stream in
  let raw =
    Engine.run ~cancel { Engine.emit_geometry; window = None } source ~labels
  in
  let circuit = circuit_of_raw ~name ~include_partial:true raw in
  ( circuit,
    {
      boxes = Ace_cif.Design.count_boxes design;
      stops = raw.stops;
      max_active = raw.max_active;
      timing = raw.timing;
      warnings = label_warnings ~y_extent:raw.y_extent raw.unbound;
    } )

let extract ?cancel ?emit_geometry ?name design =
  fst (extract_with_stats ?cancel ?emit_geometry ?name design)

let extract_boxes ?(emit_geometry = false) ?(name = "chip") ?(labels = []) boxes =
  let source = Engine.source_of_boxes boxes in
  let raw = Engine.run { Engine.emit_geometry; window = None } source ~labels in
  circuit_of_raw ~name ~include_partial:true raw

let extract_cif_string ?emit_geometry ?name text =
  let ast = Ace_cif.Parser.parse_string text in
  let design = Ace_cif.Design.of_ast ast in
  extract ?emit_geometry ?name design
