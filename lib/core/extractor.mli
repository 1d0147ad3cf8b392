open Ace_geom
open Ace_tech
open Ace_netlist

(** ACE — the flat edge-based circuit extractor (public entry points).

    [extract] runs the full pipeline of the paper: the lazy front-end
    ({!Ace_cif.Stream}) feeds sorted geometry to the scanline back-end
    ({!Engine}), and the raw result is resolved into a {!Circuit.t}
    wirelist.  Transistor sizing follows ACE §3: the width is the mean of
    the source-edge and drain-edge contact lengths, the length is the
    channel area divided by the width. *)

type stats = {
  boxes : int;  (** primitive boxes processed (the papers' N) *)
  stops : int;  (** scanline stops *)
  max_active : int;  (** peak scanline population *)
  timing : Timing.t;
  warnings : Ace_diag.Diag.t list;
      (** scanline anomalies, as structured diagnostics (code
          ["extract-anomaly"], no source span) *)
}

(** Extract a parsed-and-checked design.  [emit_geometry] populates per-net
    and per-device geometry (the paper's user option, default off).  [name]
    is the wirelist part name.  [cancel] is checked at every stream pop
    and scanline stop; a tripped token raises {!Cancel.Cancelled}. *)
val extract :
  ?cancel:Cancel.t ->
  ?emit_geometry:bool ->
  ?name:string ->
  Ace_cif.Design.t ->
  Circuit.t

(** Same, returning run statistics alongside. *)
val extract_with_stats :
  ?cancel:Cancel.t ->
  ?emit_geometry:bool ->
  ?name:string ->
  Ace_cif.Design.t ->
  Circuit.t * stats

(** Extract a pre-flattened box list (used by tests and by HEXT's window
    back-end; bypasses the lazy front-end). *)
val extract_boxes :
  ?emit_geometry:bool ->
  ?name:string ->
  ?labels:Ace_cif.Design.label list ->
  (Layer.t * Box.t) list ->
  Circuit.t

(** The order of a circuit's devices: location (y, then x), ties broken
    by the remaining fields, so it is total.  Shared with the parallel
    extractor's canonicalization. *)
val device_order : Circuit.device -> Circuit.device -> int

(** Resolve an {!Engine.raw} result into a circuit.  Exposed for HEXT.
    [include_partial] keeps boundary-touching channels as devices (flat
    extraction wants [true]; HEXT separates them). *)
val circuit_of_raw :
  name:string -> include_partial:bool -> Engine.raw -> Circuit.t

(** Render labels that bound to no net as ["extract-anomaly"] warnings,
    in list order.  Each is classified against [y_extent], the
    [(bottom, top)] the chip's scan covered ({!Engine.raw.y_extent}; a
    tiled run passes the union over its tiles): at or above [top] it
    "lies above all geometry", below [bottom] (or with nothing scanned)
    it "lies below all geometry", and in between it "touches no
    conducting geometry". *)
val label_warnings :
  y_extent:(int * int) option ->
  Ace_cif.Design.label list ->
  Ace_diag.Diag.t list

(** Parse, check and extract a CIF string in one step. *)
val extract_cif_string : ?emit_geometry:bool -> ?name:string -> string -> Circuit.t

(** The transistor sizing rule of ACE §3, shared with HEXT's partial-device
    completion: terminals are the two largest edge contacts, W is their
    mean, L is area/W; length ties are broken by the contact edge's
    geometric position so every extractor picks the same terminals.
    Returns (source, drain, width, length); a device with a single
    adjacent net has source = drain; a floating channel gets
    source = drain = gate and a √area fallback width. *)
val channel_terminals :
  gate:int ->
  area:int ->
  contacts:(int * int * Point.t * int) list ->
  int * int * int * int

(** Resolve one channel component into a device, mapping net elements
    through a per-element class array ({!Union_find.compress}, or a
    renumbering of it).  Exposed for HEXT's leaf windows. *)
val resolve_device : int array -> Engine.device_data -> Circuit.device
