open Ace_geom
open Ace_tech

(** Non-incremental flat extractor — the Cifplot comparator of ACE
    Table 5-2.

    Same strip decomposition as the scanline engine, but with none of ACE's
    incremental machinery: at every scanline stop the active set is
    recomputed by scanning the {e entire} box list, giving
    O(N × stops) ≈ O(N^1.5) behaviour.  Produces circuits equivalent to
    {!Ace_core.Extractor}'s (tested); exists so the benchmark can reproduce
    the growing gap in the paper's comparison table. *)

type stats = { stops : int; boxes_scanned : int }

val extract :
  ?name:string -> Ace_cif.Design.t -> Ace_netlist.Circuit.t

(** The raw result, packaged as an {!Ace_core.Engine.raw} so the standard
    resolution applies; [labels] sorted by decreasing y.  Exposed so the
    engine's per-device data can be checked against this oracle field by
    field. *)
val extract_raw :
  (Layer.t * Box.t) list ->
  Ace_cif.Design.label list ->
  Ace_core.Engine.raw * stats

val extract_with_stats :
  ?name:string -> Ace_cif.Design.t -> Ace_netlist.Circuit.t * stats

val extract_boxes :
  ?name:string ->
  ?labels:Ace_cif.Design.label list ->
  (Layer.t * Box.t) list ->
  Ace_netlist.Circuit.t
