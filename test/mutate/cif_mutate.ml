(* CIF-flavored byte mutations driven by an explicit [Random.State.t]:
   the alphabet keeps mutants near the interesting grammar instead of
   being rejected at the first byte. *)

let alphabet = "PBWRLDCESF0123456789-;() \n\tMXYT94QZ"

let random_char rng = alphabet.[Random.State.int rng (String.length alphabet)]

(* One of five ops: flip bytes, truncate, delete a span, insert a random
   fragment, or splice a duplicated slice elsewhere. *)
let mutate rng src =
  let b = Bytes.of_string src in
  let len = Bytes.length b in
  if len = 0 then String.make 1 (random_char rng)
  else
    match Random.State.int rng 5 with
    | 0 ->
        for _ = 0 to Random.State.int rng 8 do
          Bytes.set b (Random.State.int rng len) (random_char rng)
        done;
        Bytes.to_string b
    | 1 -> Bytes.sub_string b 0 (Random.State.int rng len)
    | 2 ->
        let i = Random.State.int rng len in
        let n = min (len - i) (1 + Random.State.int rng 40) in
        Bytes.sub_string b 0 i ^ Bytes.sub_string b (i + n) (len - i - n)
    | 3 ->
        let i = Random.State.int rng (len + 1) in
        let frag =
          String.init (1 + Random.State.int rng 12) (fun _ -> random_char rng)
        in
        Bytes.sub_string b 0 i ^ frag ^ Bytes.sub_string b i (len - i)
    | _ ->
        let i = Random.State.int rng len in
        let n = min (len - i) (1 + Random.State.int rng 60) in
        let j = Random.State.int rng (len + 1) in
        Bytes.sub_string b 0 j
        ^ Bytes.sub_string b i n
        ^ Bytes.sub_string b j (len - j)

let random_soup rng =
  String.init (Random.State.int rng 400) (fun _ -> random_char rng)
