type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 (Steele, Lea, Flood 2014): one addition and two xor-shift
   multiplies per output; passes BigCrush. *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = bits64 t in
  { state = seed }

(* OCaml native ints are 63-bit; keep 62 random bits so the result is
   always non-negative after Int64.to_int truncation. *)
let nonneg t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  nonneg t mod n

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  let u = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x *. u *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let chance t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let exponential t lambda =
  if lambda <= 0.0 then invalid_arg "Rng.exponential: lambda must be positive";
  let u = Stdlib.max 1e-12 (float t 1.0) in
  -.log u /. lambda
