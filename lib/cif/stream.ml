open Ace_geom
open Ace_tech

(* What one expansion of a symbol pushes, in push order: its direct boxes
   (symbol-local), then its calls.  Built once per symbol. *)
type call = {
  callee : int;
  local : Transform.t;  (** the call's own transform *)
  cl : int;  (** callee bounding box, placed by [local] *)
  cb : int;
  cr : int;
  ct : int;
}

type expansion = {
  boxes : int array;  (** 5 ints per box: layer index, l, b, r, t *)
  calls : call array;
}

(* Pending items live in a slot pool of [stride] ints per slot:
   - a box: layer index (>= 0), l, b, r — its top is its bucket's key;
   - a call: -1, symbol id, and its transform in [trs];
   - either way, the last int links the next slot of the same bucket (or
     of the free list), -1 ending the list. *)
let stride = 5

let next_of s = (s * stride) + 4

(* The items pending at one key (top y), oldest first. *)
type bucket = { mutable head : int; mutable tail : int }

type t = {
  design : Design.t;
  window : Box.t option;
      (** geometry filter: boxes and instance bboxes with no positive-area
          overlap are never pushed (nor expanded) *)
  mutable keys : int array;  (** max-heap of the distinct pending keys *)
  mutable nkeys : int;
  buckets : (int, bucket) Hashtbl.t;  (** key -> its non-empty bucket *)
  mutable pending : int;
  mutable pool : int array;  (** [stride] ints per slot *)
  mutable trs : Transform.t array;  (** per slot, calls only *)
  mutable used : int;  (** slots ever handed out *)
  mutable free : int;  (** head of the free-slot list, -1 when empty *)
  mutable scratch : int array;  (** one expansion's boxes while it is built *)
  expansions_of : (int, expansion) Hashtbl.t;
  labels : Design.label list;
  mutable expansions : int;
}

let layer_of_index =
  let a = Array.make Layer.count Layer.Diffusion in
  List.iter (fun l -> a.(Layer.index l) <- l) Layer.all;
  a

(* --- slot pool --- *)

let alloc_slot t =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- t.pool.(next_of s);
    s
  end
  else begin
    if t.used = Array.length t.trs then begin
      let cap = 2 * t.used in
      let pool = Array.make (cap * stride) 0 in
      Array.blit t.pool 0 pool 0 (t.used * stride);
      t.pool <- pool;
      let trs = Array.make cap Transform.identity in
      Array.blit t.trs 0 trs 0 t.used;
      t.trs <- trs
    end;
    let s = t.used in
    t.used <- s + 1;
    s
  end

let free_slot t s =
  t.pool.(next_of s) <- t.free;
  t.free <- s

(* --- the queue: FIFO buckets under a max-heap of their keys --- *)

(* The stream pops in strict (key descending, push order) order.  One FIFO
   bucket per distinct key, under a max-heap of the distinct keys, pops in
   exactly the order of a (key, sequence number) heap over the items, yet
   only the few distinct keys are ever sifted: a chip has far fewer
   distinct box tops than boxes. *)

let rec key_up keys i k =
  if i > 0 && keys.((i - 1) / 2) < k then begin
    keys.(i) <- keys.((i - 1) / 2);
    key_up keys ((i - 1) / 2) k
  end
  else keys.(i) <- k

let rec key_down keys n i k =
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && keys.(l + 1) > keys.(l) then l + 1 else l in
  if l < n && keys.(c) > k then begin
    keys.(i) <- keys.(c);
    key_down keys n c k
  end
  else keys.(i) <- k

(* Append slot [s] to the bucket of [key]. *)
let enqueue t key s =
  t.pool.(next_of s) <- -1;
  t.pending <- t.pending + 1;
  match Hashtbl.find t.buckets key with
  | b ->
      t.pool.(next_of b.tail) <- s;
      b.tail <- s
  | exception Not_found ->
      Hashtbl.add t.buckets key { head = s; tail = s };
      if t.nkeys = Array.length t.keys then begin
        let keys = Array.make (2 * t.nkeys) 0 in
        Array.blit t.keys 0 keys 0 t.nkeys;
        t.keys <- keys
      end;
      t.nkeys <- t.nkeys + 1;
      key_up t.keys (t.nkeys - 1) key

(* The highest pending key's bucket.  The queue must not be empty. *)
let top_bucket t = Hashtbl.find t.buckets t.keys.(0)

(* Unlink and return the oldest item of the highest key (still taken). *)
let dequeue t =
  if t.nkeys = 0 then invalid_arg "Stream.pop: empty queue";
  let key = t.keys.(0) in
  let b = Hashtbl.find t.buckets key in
  let s = b.head in
  t.pending <- t.pending - 1;
  if s = b.tail then begin
    Hashtbl.remove t.buckets key;
    t.nkeys <- t.nkeys - 1;
    if t.nkeys > 0 then key_down t.keys t.nkeys 0 t.keys.(t.nkeys)
  end
  else b.head <- t.pool.(next_of s);
  s

(* --- pushing geometry --- *)

let wants t ~l ~b ~r ~top =
  match t.window with
  | None -> true
  | Some w -> l < w.Box.r && w.Box.l < r && b < w.Box.t && w.Box.b < top

let push_box t lyr ~l ~b ~r ~top =
  if wants t ~l ~b ~r ~top then begin
    let s = alloc_slot t in
    let o = s * stride in
    t.pool.(o) <- lyr;
    t.pool.(o + 1) <- l;
    t.pool.(o + 2) <- b;
    t.pool.(o + 3) <- r;
    enqueue t top s
  end

(* Push [calls] placed by [tr]: here and in [push_expansion], corners are
   transformed straight to ints and re-normalized, as [Transform.apply_box]
   would, so nothing is allocated per box. *)
let push_calls t tr calls =
  for i = 0 to Array.length calls - 1 do
    let c = calls.(i) in
    let x1 = Transform.apply_x tr c.cl c.cb
    and y1 = Transform.apply_y tr c.cl c.cb
    and x2 = Transform.apply_x tr c.cr c.ct
    and y2 = Transform.apply_y tr c.cr c.ct in
    let top = Int.max y1 y2 in
    if wants t ~l:(Int.min x1 x2) ~b:(Int.min y1 y2) ~r:(Int.max x1 x2) ~top
    then begin
      let s = alloc_slot t in
      t.pool.(s * stride) <- -1;
      t.pool.((s * stride) + 1) <- c.callee;
      t.trs.(s) <- Transform.compose tr c.local;
      enqueue t top s
    end
  done

(* Push one expansion placed by [tr]: its boxes, then its calls. *)
let push_expansion t tr e =
  let g = e.boxes in
  for i = 0 to (Array.length g / 5) - 1 do
    let o = 5 * i in
    let x1 = Transform.apply_x tr g.(o + 1) g.(o + 2)
    and y1 = Transform.apply_y tr g.(o + 1) g.(o + 2)
    and x2 = Transform.apply_x tr g.(o + 3) g.(o + 4)
    and y2 = Transform.apply_y tr g.(o + 3) g.(o + 4) in
    push_box t g.(o) ~l:(Int.min x1 x2) ~b:(Int.min y1 y2) ~r:(Int.max x1 x2)
      ~top:(Int.max y1 y2)
  done;
  push_calls t tr e.calls

(* Append the symbol-local [boxes] of layer [lyr] to [t.scratch] from box
   [n] on; returns the new box count. *)
let rec add_boxes t lyr n = function
  | [] -> n
  | (bx : Box.t) :: rest ->
      if 5 * (n + 1) > Array.length t.scratch then begin
        let a = Array.make (2 * Array.length t.scratch) 0 in
        Array.blit t.scratch 0 a 0 (5 * n);
        t.scratch <- a
      end;
      let o = 5 * n in
      t.scratch.(o) <- lyr;
      t.scratch.(o + 1) <- bx.l;
      t.scratch.(o + 2) <- bx.b;
      t.scratch.(o + 3) <- bx.r;
      t.scratch.(o + 4) <- bx.t;
      add_boxes t lyr (n + 1) rest

(* The calls among [elements] that can produce geometry, with their
   callee's bounding box placed by the call's own transform. *)
let calls_of t elements =
  Array.of_list
    (List.filter_map
       (function
         | Ast.Shape _ | Ast.Label _ | Ast.Comment_ext _ -> None
         | Ast.Call { symbol; ops } -> (
             match Design.symbol_bbox t.design symbol with
             | exception Not_found ->
                 None (* undefined callee: lenient designs have dropped it *)
             | None -> None (* empty symbol: nothing will ever come out *)
             | Some bb ->
                 let local = Design.transform_of_ops ops in
                 let p = Transform.apply_box local bb in
                 Some
                   { callee = symbol; local; cl = p.l; cb = p.b; cr = p.r; ct = p.t }))
       elements)

let expansion_of_elements t elements =
  let quantum = Design.quantum t.design in
  let n =
    List.fold_left
      (fun n -> function
        | Ast.Shape { layer; shape } -> (
            match Design.resolve_layer layer with
            | None -> n
            | Some lyr ->
                add_boxes t (Layer.index lyr) n
                  (Shapes.boxes_of_shape ~quantum shape))
        | Ast.Call _ | Ast.Label _ | Ast.Comment_ext _ -> n)
      0 elements
  in
  let boxes = Array.sub t.scratch 0 (5 * n) in
  { boxes; calls = calls_of t elements }

let expansion t sym_id =
  match Hashtbl.find t.expansions_of sym_id with
  | e -> e
  | exception Not_found ->
      let e =
        expansion_of_elements t (Design.symbol t.design sym_id).Ast.elements
      in
      Hashtbl.replace t.expansions_of sym_id e;
      e

(* Expand the call in slot [s] one level and release the slot. *)
let expand_call t s =
  let sym = t.pool.((s * stride) + 1) and tr = t.trs.(s) in
  free_slot t s;
  Ace_trace.Trace.incr Ace_trace.Trace.Counter.Expansions;
  t.expansions <- t.expansions + 1;
  push_expansion t tr (expansion t sym)

let is_call t s = t.pool.(s * stride) < 0

(* Keep expanding while the queue's first item is an instance, so the top
   key is an exact box top. *)
let rec settle t =
  if t.nkeys > 0 && is_call t (top_bucket t).head then begin
    expand_call t (dequeue t);
    settle t
  end

let create ?window design =
  let t =
    {
      design;
      window;
      keys = Array.make 64 0;
      nkeys = 0;
      buckets = Hashtbl.create 64;
      pending = 0;
      pool = Array.make (64 * stride) 0;
      trs = Array.make 64 Transform.identity;
      used = 0;
      free = -1;
      scratch = Array.make (64 * 5) 0;
      expansions_of = Hashtbl.create 64;
      labels = Design.labels design;
      expansions = 0;
    }
  in
  (* top level behaves like an anonymous symbol expanded once; it is not
     cached, so its boxes are pushed as they are decomposed *)
  let top_level = (Design.ast design).Ast.top_level in
  let quantum = Design.quantum design in
  List.iter
    (function
      | Ast.Shape { layer; shape } -> (
          match Design.resolve_layer layer with
          | None -> ()
          | Some lyr ->
              List.iter
                (fun (bx : Box.t) ->
                  push_box t (Layer.index lyr) ~l:bx.l ~b:bx.b ~r:bx.r ~top:bx.t)
                (Shapes.boxes_of_shape ~quantum shape))
      | Ast.Call _ | Ast.Label _ | Ast.Comment_ext _ -> ())
    top_level;
  push_calls t Transform.identity (calls_of t top_level);
  t

let peek_top t =
  settle t;
  if t.nkeys = 0 then None else Some t.keys.(0)

let pop_at t y =
  (* Do not settle below [y]: an instance whose conservative key is already
     < y cannot contribute a box with top = y, and expanding it now would
     defeat the front-end's laziness. *)
  let acc = ref [] in
  while t.nkeys > 0 && t.keys.(0) >= y do
    let top = t.keys.(0) in
    let s = dequeue t in
    if is_call t s then expand_call t s
    else begin
      let o = s * stride in
      let bx =
        Box.make ~l:t.pool.(o + 1) ~b:t.pool.(o + 2) ~r:t.pool.(o + 3) ~t:top
      in
      acc := (layer_of_index.(t.pool.(o)), bx) :: !acc;
      free_slot t s;
      Ace_trace.Trace.incr Ace_trace.Trace.Counter.Boxes_popped
    end
  done;
  (* pops arrive FIFO (insertion order) at equal keys; undo the
     accumulator's reversal so callers see that order *)
  List.rev !acc

let drain t =
  let rec go acc last =
    match peek_top t with
    | None -> List.rev acc
    | Some y ->
        assert (match last with None -> true | Some prev -> y <= prev);
        let boxes = pop_at t y in
        go (List.rev_append boxes acc) (Some y)
  in
  go [] None

let pending t = t.pending
let labels t = t.labels
let expansions t = t.expansions
