(* Shared CLI plumbing for the CIF front-end binaries: input reading with
   clean I/O diagnostics, the --strict / --max-errors / --diag-format
   flags, diagnostic reporting and the 0/1/2 exit-code convention
   (0 = clean, 1 = diagnostics but usable output, 2 = unrecoverable). *)

module Diag = Ace_diag.Diag
module Sarif = Ace_diag.Sarif

type diag_format = Text | Json | Sarif

(* Read a file (or stdin for "-"), never letting a Sys_error escape: a
   missing path, a directory, or a read failure becomes an [io-error]
   diagnostic. *)
let read_input = function
  | "-" -> Ok (In_channel.input_all stdin)
  | path when (try Sys.is_directory path with Sys_error _ -> false) ->
      Error (Diag.errorf ~code:"io-error" "%s: is a directory" path)
  | path -> (
      match open_in_bin path with
      | exception Sys_error m -> Error (Diag.error ~code:"io-error" m)
      | ic -> (
          match
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with
          | s -> Ok s
          | exception Sys_error m -> Error (Diag.error ~code:"io-error" m)
          | exception End_of_file ->
              Error
                (Diag.errorf ~code:"io-error" "%s: truncated read" path)))

(* CIF-specific input reading: regular files are memory-mapped by
   [Parser.open_file] (zero-copy lexing); "-" and non-regular paths drain
   the stream as before.  Same error discipline as {!read_input}. *)
let read_cif_input = function
  | "-" -> Ok (Ace_cif.Parser.input_of_string (In_channel.input_all stdin))
  | path when (try Sys.is_directory path with Sys_error _ -> false) ->
      Error (Diag.errorf ~code:"io-error" "%s: is a directory" path)
  | path -> (
      match Ace_cif.Parser.open_file path with
      | input -> Ok input
      | exception Sys_error m -> Error (Diag.error ~code:"io-error" m))

(* Seconds spent in each front-end step of a load (the `ace -s` process
   ledger): opening and parsing the input, then building the design. *)
type load_times = { parse_s : float; design_s : float }

(* Parse and check a CIF input.  [None] means unrecoverable (strict mode
   hit an error); lenient mode always yields a design. *)
let load_input ~strict ~max_errors ?quantum input =
  let t0 = Unix.gettimeofday () in
  let parsed =
    if strict then
      match Ace_cif.Parser.parse_input input with
      | exception Ace_cif.Parser.Error { position; message } ->
          let stop = min (Ace_cif.Parser.input_length input) (position + 1) in
          Error
            (Diag.error
               ~span:{ Diag.start = position; stop }
               ~code:"cif-parse-error" message)
      | ast -> Ok (ast, [])
    else Ok (Ace_cif.Parser.parse_input_lenient ~max_errors input)
  in
  let t1 = Unix.gettimeofday () in
  let design, diags =
    match parsed with
    | Error d -> (None, [ d ])
    | Ok (ast, _) when strict -> (
        match Ace_cif.Design.of_ast ?quantum ast with
        | exception Ace_cif.Design.Semantic_error m ->
            (None, [ Diag.error ~code:"sem-error" m ])
        | design -> (Some design, []))
    | Ok (ast, pdiags) ->
        let design, sdiags =
          Ace_cif.Design.of_ast_lenient ?quantum ~max_errors ast
        in
        (Some design, pdiags @ sdiags)
  in
  let times = { parse_s = t1 -. t0; design_s = Unix.gettimeofday () -. t1 } in
  (design, diags, times)

let load_text ~strict ~max_errors ?quantum text =
  let design, diags, _ =
    load_input ~strict ~max_errors ?quantum (Ace_cif.Parser.input_of_string text)
  in
  (design, diags)

type loaded = {
  source : string;
  design : Ace_cif.Design.t option;  (** [None] = unrecoverable *)
  diags : Diag.t list;
  times : load_times;
}

let load ~strict ~max_errors ?quantum path =
  let t0 = Unix.gettimeofday () in
  match read_cif_input path with
  | Error d ->
      {
        source = "";
        design = None;
        diags = [ d ];
        times = { parse_s = Unix.gettimeofday () -. t0; design_s = 0.0 };
      }
  | Ok input ->
      let opened = Unix.gettimeofday () -. t0 in
      let design, diags, times = load_input ~strict ~max_errors ?quantum input in
      (* Diag rendering is the only consumer of [source] (caret context
         needs both a span and the source); on the common clean run we
         skip copying the mapping out of the page cache. *)
      let source =
        if diags = [] then "" else Ace_cif.Parser.input_to_string input
      in
      { source; design; diags; times = { times with parse_s = opened +. times.parse_s } }

(* Render diagnostics under the run's one --diag-format flag: text/JSON go
   line-by-line to stderr; SARIF emits a single complete 2.1.0 log on
   stdout (what CI ingests).  [rules] supplies tool.driver.rules metadata
   and [fingerprint] per-diagnostic partialFingerprints for SARIF. *)
let report ~format ?source ?(tool = "ace") ?uri ?(rules = [])
    ?(fingerprint = fun _ -> None) diags =
  match format with
  | Text | Json ->
      List.iter
        (fun d ->
          prerr_endline
            (match format with
            | Text -> Diag.to_string ?source d
            | Json | Sarif -> Diag.to_json ?source d))
        diags
  | Sarif ->
      let results =
        List.map
          (fun d -> Ace_diag.Sarif.of_diag ?source ?uri ?fingerprint:(fingerprint d) d)
          diags
      in
      print_endline (Ace_diag.Sarif.render ~tool ~rules results)

let exit_code ~diags ~usable =
  if not usable then 2 else if diags = [] then 0 else 1

module Trace = Ace_trace.Trace

(* --trace FILE: start a trace session now and write the Chrome JSON when
   the process ends.  The CLIs call [exit] from arbitrary depths, so the
   writer must ride [at_exit]; a scope-based finalizer would never run. *)
let setup_trace = function
  | None -> ()
  | Some path ->
      Trace.start ();
      at_exit (fun () ->
          let session = Trace.stop () in
          try Ace_trace.Chrome.write path session
          with Sys_error m ->
            Printf.eprintf "warning: cannot write trace file: %s\n" m)

(* The `-s` counter table (always available: counters accumulate even
   without --trace). *)
let print_counters ?(oc = stderr) () =
  Trace.print_counter_table ~oc (Trace.counter_totals ())

open Cmdliner

let strict_t =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Stop at the first malformed command or semantic error (exit code \
           2) instead of recovering and reporting every problem.")

let max_errors_t =
  Arg.(
    value & opt int 100
    & info [ "max-errors" ] ~docv:"N"
        ~doc:
          "Stop collecting diagnostics after $(docv) errors (0 = unbounded).")

let diag_format_t =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json); ("sarif", Sarif) ]) Text
    & info [ "diag-format" ] ~docv:"FMT"
        ~doc:
          "How to render diagnostics: $(b,text) (human-readable with caret \
           context, stderr), $(b,json) (one JSON object per line, stderr) \
           or $(b,sarif) (a complete SARIF 2.1.0 log on stdout, for CI \
           annotation).")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured trace of this run (spans, counters, \
           GC/allocation samples; one track per worker domain) and write \
           it to $(docv) as Chrome trace-event JSON, loadable in Perfetto \
           or chrome://tracing.  Tracing never changes outputs, \
           diagnostics or exit codes.")
