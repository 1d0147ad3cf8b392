type t = { xx : int; xy : int; yx : int; yy : int; dx : int; dy : int }

let identity = { xx = 1; xy = 0; yx = 0; yy = 1; dx = 0; dy = 0 }
let translation ~dx ~dy = { identity with dx; dy }
let mirror_x = { identity with xx = -1 }
let mirror_y = { identity with yy = -1 }

let rotation ~a ~b =
  match (compare a 0, compare b 0) with
  | 1, 0 -> identity
  | 0, 1 -> { identity with xx = 0; xy = -1; yx = 1; yy = 0 }
  | -1, 0 -> { identity with xx = -1; yy = -1 }
  | 0, -1 -> { identity with xx = 0; xy = 1; yx = -1; yy = 0 }
  | _ ->
      invalid_arg
        (Printf.sprintf "Transform.rotation: non-manhattan direction (%d,%d)" a
           b)

(* [compose outer inner] p = outer (inner p). *)
let compose o i =
  {
    xx = (o.xx * i.xx) + (o.xy * i.yx);
    xy = (o.xx * i.xy) + (o.xy * i.yy);
    yx = (o.yx * i.xx) + (o.yy * i.yx);
    yy = (o.yx * i.xy) + (o.yy * i.yy);
    dx = (o.xx * i.dx) + (o.xy * i.dy) + o.dx;
    dy = (o.yx * i.dx) + (o.yy * i.dy) + o.dy;
  }

let then_ t op = compose op t

let apply t (p : Point.t) =
  Point.make ((t.xx * p.x) + (t.xy * p.y) + t.dx) ((t.yx * p.x) + (t.yy * p.y) + t.dy)

let apply_x t x y = (t.xx * x) + (t.xy * y) + t.dx
let apply_y t x y = (t.yx * x) + (t.yy * y) + t.dy

let inverse t =
  (* The rotation part is orthogonal, so its inverse is its transpose. *)
  let xx = t.xx and xy = t.yx and yx = t.xy and yy = t.yy in
  {
    xx;
    xy;
    yx;
    yy;
    dx = -((xx * t.dx) + (xy * t.dy));
    dy = -((yx * t.dx) + (yy * t.dy));
  }

let apply_box t (bx : Box.t) =
  let p = apply t (Point.make bx.l bx.b) and q = apply t (Point.make bx.r bx.t) in
  Box.of_corners p q

let is_orthogonal _ = true

let equal a b =
  a.xx = b.xx && a.xy = b.xy && a.yx = b.yx && a.yy = b.yy && a.dx = b.dx
  && a.dy = b.dy

let pp ppf t =
  Format.fprintf ppf "[%d %d; %d %d]+(%d,%d)" t.xx t.xy t.yx t.yy t.dx t.dy
