(* hext — hierarchical circuit extraction: CIF in, hierarchical wirelist out. *)

let read_input = function
  | "-" -> Ace_cif.Parser.input_of_string (In_channel.input_all stdin)
  | path -> Ace_cif.Parser.open_file path

let run input output flat spice leaf_limit no_memo stats trace =
  Cli_common.setup_trace trace;
  let cif = read_input input in
  match Ace_cif.Parser.parse_input cif with
  | exception Ace_cif.Parser.Error { position; message } ->
      prerr_endline
        (Ace_cif.Parser.describe_error
           ~source:(Ace_cif.Parser.input_to_string cif)
           ~position ~message);
      exit 2
  | ast -> (
      match Ace_cif.Design.of_ast ast with
      | exception Ace_cif.Design.Semantic_error m ->
          Printf.eprintf "semantic error: %s\n" m;
          exit 2
      | design ->
          let t0 = Unix.gettimeofday () in
          let hier, run_stats =
            Ace_hext.Hext.extract ~leaf_limit ~memoize:(not no_memo) design
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          let oc = match output with None -> stdout | Some p -> open_out p in
          if spice then output_string oc (Ace_netlist.Spice.of_hier hier)
          else if flat then
            output_string oc
              (Ace_netlist.Wirelist.to_string (Ace_netlist.Hier.flatten hier))
          else output_string oc (Ace_netlist.Hier.to_string hier);
          if output <> None then close_out oc;
          if stats then begin
            Printf.eprintf
              "hext: %d devices, %d windows extracted (%d redundant skipped), \
               %d composes (%d memoized), front-end %.3f s, back-end %.3f s \
               (%.0f%% composing), total %.3f s\n"
              (Ace_netlist.Hier.flat_device_count hier)
              run_stats.Ace_hext.Hext.leaf_extractions run_stats.window_hits
              run_stats.compose_calls run_stats.compose_hits
              run_stats.front_end_seconds
              (Ace_hext.Hext.back_end_seconds run_stats)
              (100.0 *. Ace_hext.Hext.compose_fraction run_stats)
              elapsed;
            Cli_common.print_counters ()
          end)

open Cmdliner

let input =
  Arg.(value & pos 0 string "-" & info [] ~docv:"CIF" ~doc:"Input CIF file (- for stdin).")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")

let flat =
  Arg.(value & flag & info [ "flat" ] ~doc:"Flatten the hierarchical wirelist before printing (most CAD tools want a flat wirelist).")

let spice =
  Arg.(value & flag & info [ "spice" ] ~doc:"Emit a hierarchical SPICE deck (.SUBCKT per window).")

let leaf_limit =
  Arg.(value & opt int 512 & info [ "leaf-limit" ] ~docv:"N" ~doc:"Maximum boxes per leaf window.")

let no_memo =
  Arg.(value & flag & info [ "no-memo" ] ~doc:"Disable the redundant-window and compose tables (ablation).")

let stats =
  Arg.(value & flag & info [ "s"; "stats" ] ~doc:"Print run statistics to stderr.")

let cmd =
  Cmd.v
    (Cmd.info "hext" ~doc:"Hierarchical NMOS circuit extractor (Gupta & Hon, 1982)")
    Term.(
      const run $ input $ output $ flat $ spice $ leaf_limit $ no_memo $ stats
      $ Cli_common.trace_t)

let () = exit (Cmd.eval cmd)
