(** Orthogonal affine transforms — CIF symbol-call semantics.

    A transform maps p to M·p + d where M is one of the eight orthogonal
    integer matrices (four rotations, optionally mirrored).  CIF builds the
    transform of a call by applying primitive operations {e in order} to the
    symbol's coordinates: [T dx dy] (translate), [M X] (x → −x), [M Y]
    (y → −y), [R a b] (rotate the +x direction to point along (a, b);
    manhattan directions only). *)

type t

val identity : t

val translation : dx:int -> dy:int -> t

val mirror_x : t
val mirror_y : t

(** [rotation ~a ~b] rotates the +x axis to the direction (a, b), which must
    be one of the four axis directions (any positive multiple accepted).
    Raises [Invalid_argument] for non-manhattan directions. *)
val rotation : a:int -> b:int -> t

(** [then_ t op] is the transform applying [t] first, then [op] — the order
    CIF lists call operations in. *)
val then_ : t -> t -> t

(** [compose outer inner] applies [inner] first. *)
val compose : t -> t -> t

val inverse : t -> t

val apply : t -> Point.t -> Point.t

(** [apply_x t x y] and [apply_y t x y] are the coordinates of
    [apply t (Point.make x y)], computed without allocating. *)
val apply_x : t -> int -> int -> int

val apply_y : t -> int -> int -> int

(** Transformed box (corners mapped, result re-normalized). *)
val apply_box : t -> Box.t -> Box.t

(** Does the transform preserve axis alignment trivially (always true for
    this type); exposed for documentation of invariants in callers. *)
val is_orthogonal : t -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
