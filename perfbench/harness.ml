(* perfbench harness — the in-process half of the benchmark.

   Subcommands (all output is JSON on stdout; perfbench/run.py reads it):

     gen-suite DIR                 the seven paper chips at scale 1.0
     gen-aced DIR SEED NCOLD       the aced_mixed inputs for one seed
     flat FILE:NAME...             flat reference extraction digests
     oracle FILE:NAME...           flat vs the Region/Raster baselines (LVS)
     pin                           the digests pinned in perfbench/pins.json
     trace-suite DIR MODE REPS     traced per-layer ledger, ace's call order
     trace-aced DIR REPLAY REPS    traced per-layer ledger, aced's call order

   Every layer is entered through its public entry points, in the order
   the executables call them; each call is wrapped in a probe that takes
   the monotonic clock, the allocated words and the Trace counter totals
   before and after.  Spans are kept in memory and written once, at the
   end, as Chrome trace-event JSON. *)

module Chips = Ace_workloads.Chips
module Parser = Ace_cif.Parser
module Design = Ace_cif.Design
module Writer = Ace_cif.Writer
module Extractor = Ace_core.Extractor
module Parallel = Ace_core.Parallel
module Timing = Ace_core.Timing
module Circuit = Ace_netlist.Circuit
module Wirelist = Ace_netlist.Wirelist
module Spice = Ace_netlist.Spice
module Trace = Ace_trace.Trace
module Counter = Trace.Counter
module Proto = Ace_serve.Proto
module Cache = Ace_serve.Cache
module Server = Ace_serve.Server
module Hext = Ace_hext.Hext
module Lvs = Ace_lvs

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("harness: " ^ m);
      exit 2)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let md5 s = Digest.to_hex (Digest.string s)
let jstr = Proto.str
let jint = Proto.int
let jobj = Proto.obj
let jarr = Proto.arr

let jfloat f =
  if Float.is_finite f then Printf.sprintf "%.9g" f else "null"

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)

let suite_scale = 1.0

(* aced_mixed's warm set: the paper chips at a scale where one warm hit
   costs milliseconds, so the request mix is dominated by the daemon's
   own per-request work rather than by a single huge extraction. *)
let warm_scale = 0.1

(* Cold blocks are random_logic with this many jittered inverters
   (two transistors each), so a cold miss costs about a mid-size warm
   hit. *)
let cold_cells = 200
let block_seed seed i = (((seed land 0xfffff) * 7919) + (i * 104729) + 1) land 0x3fffffff

let gen_suite dir =
  List.iter
    (fun (r : Chips.recipe) ->
      write_file
        (Filename.concat dir (r.chip_name ^ ".cif"))
        (Writer.to_string (Design.ast (r.build ~scale:suite_scale))))
    Chips.paper_suite

let load_design text =
  let ast, _ = Parser.parse_string_lenient text in
  fst (Design.of_ast_lenient ast)

(* The benchmark's own seeded fault: drop one transistor card. *)
let delete_device_card ~pick deck =
  let lines = String.split_on_char '\n' deck in
  let cards = List.filter (fun l -> String.length l > 0 && l.[0] = 'M') lines in
  let victim = List.nth cards (pick mod List.length cards) in
  String.concat "\n" (List.filter (fun l -> l != victim) lines)

(* gen-aced: warm chips, a pool of distinct cold blocks, and the
   generated half of the LVS pool (the other half is hand-written
   fixtures under data/).  The manifest lists what was written. *)
let gen_aced dir seed ncold =
  let warm =
    List.map
      (fun (r : Chips.recipe) ->
        let file = Printf.sprintf "w_%s.cif" r.chip_name in
        write_file (Filename.concat dir file)
          (Writer.to_string (Design.ast (r.build ~scale:warm_scale)));
        jobj [ ("name", jstr r.chip_name); ("file", jstr file) ])
      Chips.paper_suite
  in
  let cold =
    List.init ncold (fun i ->
        let file = Printf.sprintf "c_%d.cif" i in
        write_file (Filename.concat dir file)
          (Writer.to_string
             (Chips.random_logic ~cells:cold_cells ~seed:(block_seed seed i) ()));
        jobj
          [
            ("name", jstr (Printf.sprintf "blk%d" i));
            ("file", jstr file);
            ("devices", jint (2 * cold_cells));
          ])
  in
  let lvs_block tag k ~hier ~fault =
    let bseed = block_seed (seed + 1_000_003) k in
    let text = Writer.to_string (Chips.random_logic ~cells:cold_cells ~seed:bseed ()) in
    let circuit = Extractor.extract ~name:tag (load_design text) in
    let deck = Spice.to_string circuit in
    let deck = if fault then delete_device_card ~pick:bseed deck else deck in
    write_file (Filename.concat dir (tag ^ ".cif")) text;
    write_file (Filename.concat dir (tag ^ ".sp")) deck;
    jobj
      [
        ("name", jstr tag);
        ("cif", jstr (tag ^ ".cif"));
        ("ref", jstr (tag ^ ".sp"));
        ("hier", Proto.bool hier);
        ("expect", jstr (if fault then "mismatch" else "clean"));
      ]
  in
  let lvs =
    [
      lvs_block "l_clean_h" 0 ~hier:true ~fault:false;
      lvs_block "l_clean_f" 1 ~hier:false ~fault:false;
      lvs_block "l_fault_h" 2 ~hier:true ~fault:true;
      lvs_block "l_fault_f" 3 ~hier:false ~fault:true;
    ]
  in
  print_endline
    (jobj [ ("warm", jarr warm); ("cold", jarr cold); ("lvs", jarr lvs) ])

(* ------------------------------------------------------------------ *)
(* Reference digests and the baseline oracle                          *)

let split_spec spec =
  match String.rindex_opt spec ':' with
  | Some i ->
      (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  | None -> fail "expected FILE:NAME, got %s" spec

let circuit_summary circuit =
  let wl = Wirelist.to_string circuit in
  [
    ("md5", jstr (md5 wl));
    ("devices", jint (Circuit.device_count circuit));
    ("nets", jint (Circuit.net_count circuit));
  ]

let flat specs =
  List.iter
    (fun spec ->
      let file, name = split_spec spec in
      let circuit = Extractor.extract ~name (load_design (read_file file)) in
      print_endline (jobj ((("name", jstr name)) :: circuit_summary circuit)))
    specs

let verdict (r : Lvs.Match.result) =
  match r.Lvs.Match.outcome with
  | Lvs.Match.Clean -> "clean"
  | Lvs.Match.Mismatch -> "mismatch"
  | Lvs.Match.Inconclusive -> "inconclusive"

let now () = Int64.to_float (Trace.now_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* The independent extractors, compared to the flat one with LVS. *)
let oracle_row ~name design =
  let layout = Extractor.extract ~name design in
  let cmp baseline =
    let reference, secs = timed baseline in
    jobj
      [
        ("verdict", jstr (verdict (Lvs.Match.run ~layout ~reference ())));
        ("seconds", jfloat secs);
      ]
  in
  jobj
    [
      ("name", jstr name);
      ("region", cmp (fun () -> Ace_baseline.Region.extract ~name design));
      ("raster", cmp (fun () -> Ace_baseline.Raster.extract ~name design));
    ]

let oracle specs =
  List.iter
    (fun spec ->
      let file, name = split_spec spec in
      print_endline (oracle_row ~name (load_design (read_file file))))
    specs

let oracle_chips = [ "cherry"; "dchip"; "schip2" ]

let pin () =
  let row scale (r : Chips.recipe) =
    let design = r.build ~scale in
    let text = Writer.to_string (Design.ast design) in
    (* pins are taken through the text, as the executables see it *)
    let circuit = Extractor.extract ~name:r.chip_name (load_design text) in
    ( r.chip_name,
      jobj
        (("boxes", jint (Design.count_boxes design))
        :: ("cif_md5", jstr (md5 text))
        :: circuit_summary circuit) )
  in
  let suite = List.map (row suite_scale) Chips.paper_suite in
  let warm = List.map (row warm_scale) Chips.paper_suite in
  let oracle =
    List.filter_map
      (fun (r : Chips.recipe) ->
        if List.mem r.chip_name oracle_chips then
          Some
            (oracle_row ~name:r.chip_name
               (load_design (Writer.to_string (Design.ast (r.build ~scale:suite_scale)))))
        else None)
      Chips.paper_suite
  in
  print_endline
    (jobj
       [
         ("suite_scale", jfloat suite_scale);
         ("warm_scale", jfloat warm_scale);
         ("cold_cells", jint cold_cells);
         ("suite", jobj suite);
         ("warm", jobj warm);
         ("oracle", jarr oracle);
       ])

(* ------------------------------------------------------------------ *)
(* Probes                                                             *)

(* One probe: wall seconds, allocated words and counter deltas of one
   call, recorded as a span on the benchmark's own timeline. *)
type probe = { secs : float; words : float; counters : int array }

type span = { sname : string; req : string; t_start : float; t_end : float }

let spans : span list ref = ref []

let counter_array () =
  let a = Array.make Counter.cardinal 0 in
  List.iter (fun (c, n) -> a.(Counter.index c) <- n) (Trace.counter_totals ());
  a

(* Minor-heap words: exact and repeatable, unlike the lazily updated
   major-heap totals of Gc.quick_stat. *)
let alloc_words () = Gc.minor_words ()

let probe ~req name f =
  let c0 = counter_array () in
  let w0 = alloc_words () in
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  let w1 = alloc_words () in
  let c1 = counter_array () in
  spans := { sname = name; req; t_start = t0; t_end = t1 } :: !spans;
  (x, { secs = t1 -. t0; words = w1 -. w0; counters = Array.map2 ( - ) c1 c0 })

let ctr p c = p.counters.(Counter.index c)

(* Chrome trace-event JSON: one track per request id. *)
let write_spans path =
  let tids = Hashtbl.create 16 in
  let tid req =
    match Hashtbl.find_opt tids req with
    | Some t -> t
    | None ->
        let t = Hashtbl.length tids + 1 in
        Hashtbl.add tids req t;
        t
  in
  let all = List.rev !spans in
  let t0 = match all with [] -> 0.0 | s :: _ -> s.t_start in
  let us t = jfloat ((t -. t0) *. 1e6) in
  let events =
    List.map
      (fun s ->
        jobj
          [
            ("name", jstr s.sname);
            ("ph", jstr "X");
            ("ts", us s.t_start);
            ("dur", jfloat ((s.t_end -. s.t_start) *. 1e6));
            ("pid", jint 1);
            ("tid", jint (tid s.req));
            ("args", jobj [ ("request", jstr s.req) ]);
          ])
      all
  in
  write_file path (jobj [ ("traceEvents", jarr events) ])

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* trace-suite: ace's pipeline, chip by chip                          *)

type chip_rep = {
  layers : (string * probe) list;  (** ledger layers, in call order *)
  ledger_s : float;  (** wall of the ledger layers, probes included *)
  extra : (string * float) list;  (** non-ledger values (partners etc.) *)
}

let cif_files dir =
  List.map
    (fun (r : Chips.recipe) -> (r.chip_name, Filename.concat dir (r.chip_name ^ ".cif")))
    Chips.paper_suite

(* Exactly the calls `ace [-j 2 --tile 2x2] FILE -o OUT` makes. *)
let ace_pipeline ~tiled ~name ~path ~out =
  let input = Parser.open_file path in
  let ast, _ = Parser.parse_input_lenient input in
  let design, _ = Design.of_ast_lenient ast in
  let circuit =
    if tiled then fst (Parallel.extract_with_stats ~jobs:2 ~tile:(2, 2) ~name design)
    else fst (Extractor.extract_with_stats ~name design)
  in
  let wl = Wirelist.to_string circuit in
  write_file out wl

let traced_chip ~tiled ~name ~path ~out =
  let req = name in
  let t_begin = now () in
  let input, p_open = probe ~req "cif.open" (fun () -> Parser.open_file path) in
  let bytes = Parser.input_length input in
  let (ast, _), p_parse =
    probe ~req "cif.parse" (fun () -> Parser.parse_input_lenient input)
  in
  let (design, _), p_design =
    probe ~req "cif.design" (fun () -> Design.of_ast_lenient ast)
  in
  let (circuit, pstats), p_extract =
    if tiled then
      probe ~req "parallel.extract" (fun () ->
          Parallel.extract_with_stats ~jobs:2 ~tile:(2, 2) ~name design)
    else
      probe ~req "core.extract" (fun () ->
          let c, st = Extractor.extract_with_stats ~name design in
          ( c,
            {
              Parallel.jobs = 1;
              shards = [];
              stitch_seconds = 0.0;
              boxes = st.Extractor.boxes;
              stops = st.stops;
              max_active = st.max_active;
              timing = st.timing;
              warnings = st.warnings;
            } ))
  in
  let wl, p_format = probe ~req "netlist.format" (fun () -> Wirelist.to_string circuit) in
  let (), p_write = probe ~req "netlist.write" (fun () -> write_file out wl) in
  let ledger_s = now () -. t_begin in
  (* not on ace's path: the string front end aced uses, and (tiled) the
     flat extractor on the same design as the speed-up base *)
  let text = read_file path in
  let _, p_pstring =
    probe ~req "cif.parse_string" (fun () -> Parser.parse_string_lenient text)
  in
  let core =
    if tiled then
      Some (probe ~req "core.extract" (fun () -> Extractor.extract_with_stats ~name design))
    else None
  in
  let boxes = float_of_int pstats.Parallel.boxes in
  let core_probe, core_timing =
    match core with
    | Some ((_, st), p) -> (p, st.Extractor.timing)
    | None -> (p_extract, pstats.Parallel.timing)
  in
  let per_box c = float_of_int (ctr core_probe c) /. boxes in
  let extra =
    [
      ("bytes", float_of_int bytes);
      ("boxes", boxes);
      ("wl_bytes", float_of_int (String.length wl));
      ("devices", float_of_int (Circuit.device_count circuit));
      ("cif.parse_string_s", p_pstring.secs);
      ("cif.parse_words", p_open.words +. p_parse.words);
      ("netlist.format_words", p_format.words);
      ("core.extract_s", core_probe.secs);
      ("core.front_end_s", Timing.seconds core_timing Timing.Front_end);
      ("core.list_update_s", Timing.seconds core_timing Timing.List_update);
      ("core.devices_s", Timing.seconds core_timing Timing.Devices);
      ("core.uf_finds_per_box", per_box Counter.Uf_finds);
      ("core.active_merges_per_box", per_box Counter.Active_merges);
      ("core.expansions_per_box", per_box Counter.Expansions);
      ("core.alloc_words_per_box", core_probe.words /. boxes);
    ]
    @
    if tiled then
      [
        ("parallel.extract_s", p_extract.secs);
        ("parallel.stitch_s", pstats.Parallel.stitch_seconds);
        ("parallel.balance", Parallel.balance pstats);
        ("parallel.tile_steals", float_of_int (ctr p_extract Counter.Tile_steals));
        ( "parallel.seam_merges",
          float_of_int
            (ctr p_extract Counter.Seam_merges_h + ctr p_extract Counter.Seam_merges_v) );
      ]
    else []
  in
  {
    layers =
      [
        ("cif.parse", { p_parse with secs = p_open.secs +. p_parse.secs });
        ("cif.design", p_design);
        ((if tiled then "parallel.extract" else "core.extract"), p_extract);
        ("netlist.format", p_format);
        ("netlist.write", p_write);
      ];
    ledger_s;
    extra;
  }

(* REPS rounds; each round runs every chip once untraced and once
   traced, alternating which goes first, so trace.overhead compares
   like with like. *)
let trace_suite dir mode reps =
  let tiled =
    match mode with
    | "flat" -> false
    | "tiled" -> true
    | m -> fail "unknown mode %s" m
  in
  let chips = cif_files dir in
  let out name = Filename.concat dir (name ^ ".trace.wl") in
  let untraced = ref [] and traced_walls = ref [] in
  let reps_by_chip = Hashtbl.create 8 in
  for rep = 1 to reps do
    let plain () =
      let (), s =
        timed (fun () ->
            List.iter
              (fun (name, path) -> ace_pipeline ~tiled ~name ~path ~out:(out name))
              chips)
      in
      untraced := s :: !untraced
    in
    let traced () =
      let t = ref 0.0 in
      List.iter
        (fun (name, path) ->
          let r = traced_chip ~tiled ~name ~path ~out:(out name) in
          t := !t +. r.ledger_s;
          Hashtbl.replace reps_by_chip name
            (r :: Option.value ~default:[] (Hashtbl.find_opt reps_by_chip name)))
        chips;
      traced_walls := !t :: !traced_walls
    in
    if rep mod 2 = 1 then (plain (); traced ()) else (traced (); plain ())
  done;
  let chip_json (name, _) =
    let rs = List.rev (Hashtbl.find reps_by_chip name) in
    let layer_names = List.map fst (List.hd rs).layers in
    let extra_names = List.map fst (List.hd rs).extra in
    let layers =
      List.map
        (fun l ->
          let ps = List.map (fun r -> List.assoc l r.layers) rs in
          ( l,
            jobj
              [
                ("s", jfloat (median (List.map (fun p -> p.secs) ps)));
                ("words", jarr (List.map (fun p -> jfloat p.words) ps));
              ] ))
        layer_names
    in
    let extra =
      List.map
        (fun e -> (e, jarr (List.map (fun r -> jfloat (List.assoc e r.extra)) rs)))
        extra_names
    in
    jobj [ ("name", jstr name); ("layers", jobj layers); ("reps", jobj extra) ]
  in
  write_spans (Filename.concat dir (mode ^ ".spans.json"));
  print_endline
    (jobj
       [
         ("mode", jstr mode);
         ("untraced_s", jarr (List.map jfloat (List.rev !untraced)));
         ("traced_s", jarr (List.map jfloat (List.rev !traced_walls)));
         ("chips", jarr (List.map chip_json chips));
       ])

(* ------------------------------------------------------------------ *)
(* trace-aced: aced's request path, request by request                *)

(* The server's compute path, replayed through the public entry points
   in the order Server.handle_line reaches them, on a cache of its own.
   The cache key is built from the same parts the server hashes. *)
let replica ~req cache (r : Proto.request) =
  let acc = ref [] and facts = ref [] in
  let step name f =
    let x, p = probe ~req name f in
    acc := (name, p) :: !acc;
    (x, p)
  in
  let fact name v = facts := (name, v) :: !facts in
  let cif = Option.value r.Proto.cif ~default:"" in
  let (ast, _), p_parse =
    step "cif.parse_string" (fun () -> Parser.parse_string_lenient cif)
  in
  fact "cif_bytes" (float_of_int (String.length cif));
  fact "parse_words" p_parse.words;
  let (design, _), _ = step "cif.design" (fun () -> Design.of_ast_lenient ast) in
  let extract () =
    let (circuit, st), p =
      step "core.extract" (fun () ->
          Parallel.extract_with_stats ~jobs:1 ~name:r.Proto.name design)
    in
    let timing = st.Parallel.timing in
    fact "core.front_end_s" (Timing.seconds timing Timing.Front_end);
    fact "core.list_update_s" (Timing.seconds timing Timing.List_update);
    fact "core.devices_s" (Timing.seconds timing Timing.Devices);
    fact "boxes" (float_of_int st.Parallel.boxes);
    fact "uf_finds" (float_of_int (ctr p Counter.Uf_finds));
    fact "active_merges" (float_of_int (ctr p Counter.Active_merges));
    fact "expansions" (float_of_int (ctr p Counter.Expansions));
    fact "core_words" p.words;
    (circuit, st)
  in
  (match r.Proto.op with
  | "extract" ->
      let key, _ =
        step "serve.key" (fun () ->
            Cache.fnv1a64_hex
              (String.concat "\x00"
                 [
                   string_of_int Cache.format_version;
                   string_of_int (Design.quantum design);
                   r.Proto.name;
                   "1";
                   "-";
                   Writer.to_string (Design.ast design);
                 ]))
      in
      (match fst (step "serve.cache_find" (fun () -> Cache.find cache key)) with
      | Some _ -> ()
      | None ->
          let circuit, st = extract () in
          let wl, p_format =
            step "netlist.format" (fun () -> Wirelist.to_string circuit)
          in
          fact "wl_bytes" (float_of_int (String.length wl));
          fact "format_words" p_format.words;
          let payload, _ =
            step "serve.payload" (fun () ->
                Proto.obj
                  [
                    ("wirelist", Proto.str wl);
                    ("nets", Proto.int (Circuit.net_count circuit));
                    ("devices", Proto.int (Array.length circuit.Circuit.devices));
                    ( "warnings",
                      Proto.arr
                        (List.map Ace_diag.Diag.to_json st.Parallel.warnings) );
                  ])
          in
          ignore (step "serve.cache_store" (fun () -> Cache.store cache key payload)))
  | _ ->
      let text = Option.value r.Proto.reference ~default:"" in
      let reference =
        match fst (step "lvs.ref_load" (fun () -> Lvs.Reference.load ~name:"reference" text)) with
        | Ok (c, _) -> c
        | Error _ -> fail "%s: unreadable reference" req
      in
      if r.Proto.hier then begin
        let ref_view, _ =
          step "lvs.ref_view" (fun () -> Lvs.Reference.hier_view ~name:"reference" text)
        in
        let (layout, hs), _ = step "hext.extract" (fun () -> Hext.extract design) in
        let hr, _ =
          step "lvs.hier" (fun () -> Lvs.Hier.run ~layout ~reference ?ref_view ())
        in
        fact "hext.leaf_extractions" (float_of_int hs.Hext.leaf_extractions);
        fact "hext.window_hits" (float_of_int hs.Hext.window_hits);
        fact "hext.compose_hits" (float_of_int hs.Hext.compose_hits);
        fact "lvs.cell_hits" (float_of_int hr.Lvs.Hier.cell_hits);
        fact "lvs.fallbacks" (if hr.Lvs.Hier.fallback then 1.0 else 0.0)
      end
      else begin
        let circuit, _ = extract () in
        ignore (step "lvs.match" (fun () -> Lvs.Match.run ~layout:circuit ~reference ()))
      end);
  (List.rev !acc, List.rev !facts)

let fresh_dir path =
  if Sys.file_exists path then
    Array.iter (fun f -> Sys.remove (Filename.concat path f)) (Sys.readdir path)
  else Sys.mkdir path 0o755

let open_cache path =
  fresh_dir path;
  match Cache.open_dir ~faults:(Ace_serve.Faults.none ()) path with
  | Ok c -> c
  | Error m -> fail "%s" m

(* REPLAY holds "CLASS<TAB>REQUEST" lines: first the warm set's warm-up
   requests (class "setup"), then the requests the daemon served, in
   order.  Each round replays them on fresh caches once untraced and
   once traced (alternating which goes first); one more pass runs the
   replica for the per-layer split. *)
let trace_aced dir replay reps =
  let lines =
    List.filter_map
      (fun l ->
        match String.index_opt l '\t' with
        | Some i ->
            Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        | None -> None)
      (String.split_on_char '\n' (read_file replay))
  in
  let setup = List.filter (fun (c, _) -> c = "setup") lines in
  let served = List.filter (fun (c, _) -> c <> "setup") lines in
  let server k =
    let cache = open_cache (Filename.concat dir (Printf.sprintf "cache-%d" k)) in
    let t = Server.create (Server.config ~cache ()) in
    List.iter (fun (_, l) -> ignore (Server.handle_line t l)) setup;
    t
  in
  let untraced = ref [] and traced_walls = ref [] in
  let handles = Hashtbl.create 256 in
  for rep = 1 to reps do
    let plain () =
      let t = server 0 in
      let (), s =
        timed (fun () -> List.iter (fun (_, l) -> ignore (Server.handle_line t l)) served)
      in
      untraced := s :: !untraced
    in
    let traced () =
      let t = server 1 in
      let (), wall =
        timed (fun () ->
            List.iteri
              (fun i (cls, l) ->
                let req = Printf.sprintf "%s#%d" cls i in
                let _, p = probe ~req "serve.handle" (fun () -> Server.handle_line t l) in
                Hashtbl.replace handles i
                  (p.secs :: Option.value ~default:[] (Hashtbl.find_opt handles i)))
              served)
      in
      traced_walls := wall :: !traced_walls
    in
    if rep mod 2 = 1 then (plain (); traced ()) else (traced (); plain ())
  done;
  let cache = open_cache (Filename.concat dir "cache-replica") in
  let parse l =
    match Proto.parse l with Ok r -> r | Error (_, m) -> fail "bad replay line: %s" m
  in
  List.iter (fun (_, l) -> ignore (replica ~req:"setup" cache (parse l))) setup;
  let rows =
    List.mapi
      (fun i (cls, l) ->
        let req = Printf.sprintf "%s#%d" cls i in
        let layers, facts =
          let x, p = probe ~req "serve.proto_parse" (fun () -> parse l) in
          let layers, facts = replica ~req cache x in
          (("serve.proto_parse", p) :: layers, facts)
        in
        jobj
          [
            ("class", jstr cls);
            ("handle_s", jfloat (median (Hashtbl.find handles i)));
            ( "layers",
              jobj
                (List.map
                   (fun (n, p) -> (n, jobj [ ("s", jfloat p.secs); ("words", jfloat p.words) ]))
                   layers) );
            ("facts", jobj (List.map (fun (n, v) -> (n, jfloat v)) facts));
          ])
      served
  in
  write_spans (Filename.concat dir "aced.spans.json");
  print_endline
    (jobj
       [
         ("untraced_s", jarr (List.map jfloat (List.rev !untraced)));
         ("traced_s", jarr (List.map jfloat (List.rev !traced_walls)));
         ("requests", jarr rows);
       ])

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "gen-suite"; dir ] -> gen_suite dir
  | [ "gen-aced"; dir; seed; ncold ] -> gen_aced dir (int_of_string seed) (int_of_string ncold)
  | "flat" :: specs -> flat specs
  | "oracle" :: specs -> oracle specs
  | [ "pin" ] -> pin ()
  | [ "trace-suite"; dir; mode; reps ] -> trace_suite dir mode (int_of_string reps)
  | [ "trace-aced"; dir; replay; reps ] -> trace_aced dir replay (int_of_string reps)
  | _ -> fail "usage: see the comment at the top of perfbench/harness.ml"
