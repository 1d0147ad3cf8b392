(* The accumulator is a local Int64 ref that never escapes, so the
   native compiler keeps it unboxed: the loop allocates nothing. *)
let hex s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h
