(** FNV-1a, 64 bit: cheap, stable across runs and platforms.  The one
    hash behind lint and LVS finding fingerprints, [aced] cache keys and
    cache entry checksums. *)

val hex : string -> string
(** The digest as 16 lowercase hex digits.  Allocates only the result. *)
