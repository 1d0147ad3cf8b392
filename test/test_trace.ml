(* Ace_trace: span nesting, timestamp monotonicity, counter accounting
   across shards, Timing/span agreement, and exception safety.

   The recording flag is process-global, so every test that records wraps
   its session in [record] to guarantee stop() runs (alcotest keeps going
   after a failure and a leaked session would poison later tests). *)

module Trace = Ace_trace.Trace
module Chrome = Ace_trace.Chrome
module Parallel = Ace_core.Parallel
module Timing = Ace_core.Timing

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let record f =
  Trace.start ();
  let r = Fun.protect ~finally:(fun () -> ignore (Trace.stop ())) f in
  (* stop() may already have been called inside f; calling it twice is
     harmless (second session is empty), and this way no failure path can
     leave recording on. *)
  r

let session_of f =
  Trace.start ();
  match f () with
  | () -> Trace.stop ()
  | exception e ->
      ignore (Trace.stop ());
      raise e

let data_design file =
  let dir =
    List.find Sys.file_exists [ "../data"; "data"; "_build/default/data" ]
  in
  Ace_cif.Design.of_ast
    (Ace_cif.Parser.parse_file (Filename.concat dir file))

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_slugs_unique () =
  let slugs = List.map Trace.Counter.slug Trace.Counter.all in
  check_int "cardinal" Trace.Counter.cardinal (List.length Trace.Counter.all);
  check_int "unique slugs"
    (List.length slugs)
    (List.length (List.sort_uniq compare slugs));
  List.iteri
    (fun i c -> check_int "index order" i (Trace.Counter.index c))
    Trace.Counter.all

let total c =
  List.assoc c (Trace.counter_totals ())

let test_counter_accumulation () =
  let before = total Trace.Counter.Uf_finds in
  Trace.count Trace.Counter.Uf_finds 5;
  Trace.incr Trace.Counter.Uf_finds;
  check_int "count + incr" (before + 6) (total Trace.Counter.Uf_finds)

(* ------------------------------------------------------------------ *)
(* Span structure: random trees must balance with monotone clocks      *)
(* ------------------------------------------------------------------ *)

(* A small program of nested spans, instants and track switches. *)
type prog =
  | Leaf
  | Instant of int
  | Span of int * prog list
  | Track of int * prog list

let gen_prog =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof [ return Leaf; map (fun i -> Instant i) (int_range 0 5) ]
      else
        frequency
          [
            (2, return Leaf);
            (2, map (fun i -> Instant i) (int_range 0 5));
            ( 4,
              let* name = int_range 0 5 in
              let* kids = list_size (int_range 0 3) (self (n / 2)) in
              return (Span (name, kids)) );
            ( 1,
              let* t = int_range 1 3 in
              let* kids = list_size (int_range 0 3) (self (n / 2)) in
              return (Track (t, kids)) );
          ])

let rec exec = function
  | Leaf -> ignore (Sys.opaque_identity (List.init 3 Fun.id))
  | Instant i -> Trace.instant (Printf.sprintf "i%d" i)
  | Span (name, kids) ->
      Trace.with_span (Printf.sprintf "s%d" name) (fun () ->
          List.iter exec kids)
  | Track (t, kids) ->
      Trace.with_track ~tid:(100 + t) ~name:(Printf.sprintf "track %d" t)
        (fun () -> List.iter exec kids)

(* Direct structural check on the exported events, independent of the
   Chrome renderer: per track, timestamps are monotone non-decreasing and
   Begin/End bracket like parentheses with matching names. *)
let track_well_formed (t : Trace.track) =
  let ok = ref true in
  let last_ts = ref Int64.min_int in
  let stack = ref [] in
  Array.iter
    (fun (e : Trace.event) ->
      if Int64.compare e.ts !last_ts < 0 then ok := false;
      last_ts := e.ts;
      match e.kind with
      | Trace.Begin -> stack := e.ename :: !stack
      | Trace.End -> (
          match !stack with
          | top :: rest when top = e.ename -> stack := rest
          | _ -> ok := false)
      | Trace.Instant -> ())
    t.t_events;
  !ok && !stack = []

let prop_spans_balance =
  Tutil.qtest ~count:200 "random span trees balance per track" gen_prog
    (fun prog ->
      let session = session_of (fun () -> exec prog) in
      List.for_all track_well_formed session.tracks
      &&
      match Chrome.validate (Chrome.render session) with
      | Ok _ -> true
      | Error m -> QCheck2.Test.fail_reportf "chrome validate: %s" m)

let prop_zero_render_stable =
  Tutil.qtest ~count:50 "zeroed render is validatable and stable" gen_prog
    (fun prog ->
      let session = session_of (fun () -> exec prog) in
      let a = Chrome.render ~zero:true session in
      (match Chrome.validate a with
      | Ok _ -> ()
      | Error m -> QCheck2.Test.fail_reportf "zeroed validate: %s" m);
      (* zeroing is a pure function of the session *)
      a = Chrome.render ~zero:true session)

(* ------------------------------------------------------------------ *)
(* Exception safety                                                    *)
(* ------------------------------------------------------------------ *)

exception Boom

let test_span_closes_on_raise () =
  record (fun () ->
      (try Trace.with_span "outer" (fun () -> raise Boom)
       with Boom -> ());
      (* the span must be closed: a sibling span at the same depth keeps
         the track balanced *)
      Trace.with_span "sibling" (fun () -> ());
      let session = Trace.stop () in
      check "balanced after raise" true
        (List.for_all track_well_formed session.tracks);
      check "renders valid" true
        (Result.is_ok (Chrome.validate (Chrome.render session))))

let test_timed_elapsed_on_raise () =
  List.iter
    (fun recording ->
      let saw = ref (-1.0) in
      let run () =
        try Trace.timed "t" (fun dt -> saw := dt) (fun () -> raise Boom)
        with Boom -> ()
      in
      if recording then record run else run ();
      check
        (Printf.sprintf "on_elapsed called (recording=%b)" recording)
        true (!saw >= 0.0))
    [ false; true ]

let test_track_restored_on_raise () =
  record (fun () ->
      let before = Trace.current_track () in
      (try
         Trace.with_track ~tid:77 ~name:"doomed" (fun () -> raise Boom)
       with Boom -> ());
      check "track restored" true (Trace.current_track () = before))

(* A session stopped inside spans — here one on a lane and one on the
   domain's track — exports them closed, and the lane as its own track. *)
let test_open_spans_closed_at_stop () =
  record (fun () ->
      let lane = Trace.lane ~tid:4242 ~name:"lane" in
      let session =
        Trace.with_lane_span lane "io" (fun () ->
            Trace.with_span "outer" (fun () -> Trace.stop ()))
      in
      check "balanced at stop" true
        (List.for_all track_well_formed session.tracks);
      check "lane exported as its own track" true
        (List.exists (fun t -> t.Trace.t_tid = 4242) session.tracks);
      check "renders valid" true
        (Result.is_ok (Chrome.validate (Chrome.render session))))

(* ------------------------------------------------------------------ *)
(* Extraction accounting: shards, totals, Timing agreement             *)
(* ------------------------------------------------------------------ *)

(* Global lifetime counter totals must advance by exactly the session's
   per-track deltas, and every shard's published s_counters must be the
   session counters of its own track — under both -j1 and -j4. *)
let test_shard_counter_totals () =
  let design = data_design "chain4.cif" in
  List.iter
    (fun jobs ->
      Trace.start ();
      let before = Trace.counter_totals () in
      let _, stats = Parallel.extract_with_stats ~jobs design in
      let after = Trace.counter_totals () in
      let session = Trace.stop () in
      let deltas =
        List.map2 (fun (c, a) (_, b) -> (c, a - b)) after before
      in
      check
        (Printf.sprintf "totals delta = session totals (-j%d)" jobs)
        true
        (deltas = Trace.session_counter_totals session);
      List.iteri
        (fun idx (s : Parallel.shard) ->
          match
            List.find_opt
              (fun (t : Trace.track) -> t.t_tid = idx + 1)
              session.tracks
          with
          | Some t ->
              check
                (Printf.sprintf "shard %d counters (-j%d)" idx jobs)
                true
                (s.s_counters = t.t_counters)
          | None ->
              (* a shard with no events and all-zero counters is elided *)
              check
                (Printf.sprintf "elided shard %d is empty (-j%d)" idx jobs)
                true
                (Array.for_all (( = ) 0) s.s_counters))
        stats.shards;
      (* shard contributions never exceed the whole session *)
      let sum c =
        List.fold_left
          (fun a (s : Parallel.shard) ->
            a + s.s_counters.(Trace.Counter.index c))
          0 stats.shards
      in
      List.iter
        (fun (c, v) ->
          check
            (Printf.sprintf "shards <= total for %s (-j%d)"
               (Trace.Counter.slug c) jobs)
            true (sum c <= v))
        (Trace.session_counter_totals session))
    [ 1; 4 ]

(* Phase seconds reconstructed from a shard's span events equal the
   shard's legacy Timing numbers *exactly*: Timing.charge derives both
   from the same two clock samples. *)
let phase_seconds_of_track (t : Trace.track) =
  let acc = Hashtbl.create 8 in
  let stack = ref [] in
  Array.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Begin -> stack := e :: !stack
      | Trace.End -> (
          match !stack with
          | b :: rest ->
              stack := rest;
              let dt =
                Int64.to_float (Int64.sub e.ts b.Trace.ts) /. 1e9
              in
              let prev =
                Option.value ~default:0.0 (Hashtbl.find_opt acc e.ename)
              in
              Hashtbl.replace acc e.ename (prev +. dt)
          | [] -> ())
      | Trace.Instant -> ())
    t.t_events;
  acc

let test_timing_agrees_with_spans () =
  let design = data_design "mesh4x4.cif" in
  let stats = ref None in
  let session =
    session_of (fun () ->
        stats := Some (snd (Parallel.extract_with_stats ~jobs:2 design)))
  in
  let stats = Option.get !stats in
  List.iteri
    (fun idx (s : Parallel.shard) ->
      match
        List.find_opt
          (fun (t : Trace.track) -> t.t_tid = idx + 1)
          session.tracks
      with
      | None -> Alcotest.failf "shard %d track missing" idx
      | Some t ->
          let from_spans = phase_seconds_of_track t in
          List.iter
            (fun phase ->
              let slug = Timing.phase_slug phase in
              let spans =
                Option.value ~default:0.0 (Hashtbl.find_opt from_spans slug)
              in
              let legacy = Timing.seconds s.s_timing phase in
              if spans <> legacy then
                Alcotest.failf
                  "shard %d %s: spans %.17g <> timing %.17g" idx slug spans
                  legacy)
            [ Timing.Front_end; Timing.List_update; Timing.Devices ])
    stats.shards

(* Tracing must not change what the extractor produces. *)
let test_tracing_is_transparent () =
  let design = data_design "mesh4x4.cif" in
  let plain = Parallel.extract ~jobs:4 ~name:"m" design in
  let traced = ref None in
  let session =
    session_of (fun () ->
        traced := Some (Parallel.extract ~jobs:4 ~name:"m" design))
  in
  check "wirelist identical under tracing" true
    (Ace_netlist.Wirelist.to_string plain
    = Ace_netlist.Wirelist.to_string (Option.get !traced));
  (* -j4 publishes one track per shard plus stitch plus main *)
  let tids = List.map (fun (t : Trace.track) -> t.t_tid) session.tracks in
  List.iter
    (fun tid -> check (Printf.sprintf "track %d present" tid) true
        (List.mem tid tids))
    [ 1; 2; 3; 4; 5 ]

let () =
  Alcotest.run "trace"
    [
      ( "counters",
        [
          Alcotest.test_case "slug/index" `Quick test_counter_slugs_unique;
          Alcotest.test_case "accumulation" `Quick test_counter_accumulation;
        ] );
      ( "spans",
        [
          prop_spans_balance;
          prop_zero_render_stable;
          Alcotest.test_case "span closes on raise" `Quick
            test_span_closes_on_raise;
          Alcotest.test_case "timed elapsed on raise" `Quick
            test_timed_elapsed_on_raise;
          Alcotest.test_case "track restored on raise" `Quick
            test_track_restored_on_raise;
          Alcotest.test_case "open spans closed at stop" `Quick
            test_open_spans_closed_at_stop;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "shard counter totals" `Quick
            test_shard_counter_totals;
          Alcotest.test_case "timing = spans" `Quick
            test_timing_agrees_with_spans;
          Alcotest.test_case "tracing transparent" `Quick
            test_tracing_is_transparent;
        ] );
    ]
