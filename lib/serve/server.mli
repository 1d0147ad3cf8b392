(** The aced request server.

    One {!t} serves many connections (socket mode spawns a thread per
    connection; [--once] mode reads stdin).  The contract is totality:
    {!handle_line} never raises and always returns exactly one
    well-formed JSON reply, whatever the input — oversized lines,
    binary garbage, half a request, a layout that trips an internal
    exception on a spawned shard domain.  The daemon's health is never
    coupled to a request's fate.

    Robustness machinery per request:

    - {b deadlines}: [deadline_ms] (or the configured default) becomes
      an {!Ace_core.Cancel} token threaded into the extraction engine
      and the flow solver; expiry raises out of the hot loop and is
      mapped to a ["deadline-exceeded"] error reply (counted by the
      [deadline_kills] counter).  The token is also polled while a
      request waits its turn for the extraction lock, so queued
      requests time out too.
    - {b backpressure}: at most [max_inflight] compute requests run at
      once; beyond that, requests are rejected immediately with an
      ["overloaded"] reply carrying [retry_after_ms] — bounded memory
      under sustained overload ([ping]/[stats] are always admitted).
    - {b isolation}: any exception — including one raised on a spawned
      shard domain and re-raised at the parallel join — yields an
      ["internal-error"] reply with a stable exception fingerprint;
      the daemon keeps serving.
    - {b persistence}: extract results are cached content-addressed in
      a {!Cache}; a warm reply's [result] field is the cached payload
      spliced verbatim, so it is byte-identical to the cold reply. *)

type config = {
  jobs : int;  (** default and maximum shards per request *)
  cache : Cache.t option;
  max_request_bytes : int;
  max_inflight : int;
  default_deadline_ms : int;  (** 0 = none *)
  retry_after_ms : int;  (** hint in overload replies *)
  faults : Faults.t;
  vdd : string;  (** default rail names for lint/flow *)
  gnd : string;
}

val config :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?max_request_bytes:int ->
  ?max_inflight:int ->
  ?default_deadline_ms:int ->
  ?retry_after_ms:int ->
  ?faults:Faults.t ->
  ?vdd:string ->
  ?gnd:string ->
  unit ->
  config
(** Defaults: [jobs = 1], no cache, 8 MiB requests, [max_inflight = 4],
    no deadline, [retry_after_ms = 100], no faults, rails VDD/GND. *)

type t

val create : config -> t

val stopping : t -> bool
(** True once a [shutdown] request has been accepted. *)

val cache_key : Ace_cif.Design.t -> name:string -> string list -> string
(** The content address of a request's result: FNV-1a 64 (hex) over the
    cache format version, the design's quantum, [name], the canonical CIF
    text of the design and an op's own extra inputs.  Neither [jobs] nor
    a tile grid is part of it.  A daemon whose keys drift would find its
    existing cache directory cold. *)

val handle_line : t -> string -> string
(** One request line in, one reply line out (no trailing newline).
    Total: never raises. *)

type line_in = Line of string | Too_long | Eof

type reader
(** One connection's input: the channel and a 64 KB chunk read from it. *)

val reader : in_channel -> reader

val read_line_bounded : reader -> int -> line_in
(** [read_line_bounded r limit] is the next line without its newline.
    A line longer than [limit] bytes is drained to its newline and gives
    [Too_long]; the next call reads the line after it.  A final line
    without a newline is returned at end of input; then [Eof]. *)

val serve_channel : t -> in_channel -> out_channel -> unit
(** Serve until EOF or shutdown.  Lines longer than
    [max_request_bytes] are drained without buffering and answered
    with ["request-too-large"].  When a trace is recording, reading a
    request line is a [serve.read] span (from the line's first byte:
    the wait for the client is not in it) and sending the reply a [serve.write] span, both on a track
    of the connection's own, named ["connection N"]. *)

val serve_once : t -> unit
(** [serve_channel] over stdin/stdout. *)

val serve_socket : t -> string -> unit
(** Bind a Unix-domain socket at the given path (replacing any stale
    socket file), accept in a loop, one thread per connection.
    Returns after a [shutdown] request; the socket file is removed. *)
