type key = int
type value = int

type t = Read of key * value | Write of key * value

let key = function Read (k, _) | Write (k, _) -> k
let value = function Read (_, v) | Write (_, v) -> v
let is_read = function Read _ -> true | Write _ -> false
let is_write = function Write _ -> true | Read _ -> false

let pp ppf = function
  | Read (k, v) -> Format.fprintf ppf "R(x%d)=%d" k v
  | Write (k, v) -> Format.fprintf ppf "W(x%d):=%d" k v

let to_string op = Format.asprintf "%a" pp op

(* --- text grammar --- *)

exception Malformed

(* Accumulate in the negative range so min_int parses.  [acc * 10 - d]
   stays >= min_int exactly when [acc] is above [min_int / 10], or equal
   to it with [d] at most min_int's last digit. *)
let acc_limit = min_int / 10
let last_digit = -(min_int mod 10)

let int_of_sub s lo hi =
  let neg = lo < hi && String.unsafe_get s lo = '-' in
  let first = if neg then lo + 1 else lo in
  if first >= hi then raise Malformed;
  let acc = ref 0 in
  for i = first to hi - 1 do
    let d = Char.code (String.unsafe_get s i) - 48 in
    if d < 0 || d > 9 || !acc < acc_limit || (!acc = acc_limit && d > last_digit)
    then raise Malformed;
    acc := (!acc * 10) - d
  done;
  if neg then !acc
  else if !acc = min_int then raise Malformed
  else - !acc

let of_sub s lo hi =
  if lo < 0 || hi > String.length s || hi - lo < 7 then raise Malformed;
  let is_read =
    match String.unsafe_get s lo with
    | 'R' -> true
    | 'W' -> false
    | _ -> raise Malformed
  in
  if String.unsafe_get s (lo + 1) <> '(' || String.unsafe_get s (lo + 2) <> 'x'
  then raise Malformed;
  let close = ref (lo + 3) in
  while !close < hi && String.unsafe_get s !close <> ')' do
    incr close
  done;
  let k = int_of_sub s (lo + 3) !close in
  let v_lo = if is_read then !close + 2 else !close + 3 in
  if v_lo > hi then raise Malformed;
  if is_read then begin
    if String.unsafe_get s (!close + 1) <> '=' then raise Malformed;
    Read (k, int_of_sub s v_lo hi)
  end
  else begin
    if String.unsafe_get s (!close + 1) <> ':' || String.unsafe_get s (!close + 2) <> '='
    then raise Malformed;
    Write (k, int_of_sub s v_lo hi)
  end

let of_string s = try Some (of_sub s 0 (String.length s)) with Malformed -> None

let equal a b = a = b
