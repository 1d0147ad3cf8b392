(** Seeded CIF mutation operators (fuzzer and parser golden). *)

(** The CIF-flavored byte alphabet mutations draw from. *)
val alphabet : string

(** [mutate rng src] applies one randomly chosen op: flip up to nine
    bytes, truncate, delete a span, insert a fragment, or splice a
    duplicated slice.  The empty string becomes one random byte. *)
val mutate : Random.State.t -> string -> string

(** Up to 399 random alphabet bytes. *)
val random_soup : Random.State.t -> string
