type t = { mutable data : int array; mutable len : int }

let create capacity = { data = Array.make (Stdlib.max 4 capacity) 0; len = 0 }

let length t = t.len

let push t x =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i = t.data.(i)
let set t i x = t.data.(i) <- x
let clear t = t.len <- 0

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Int_vec.truncate";
  t.len <- n

let pop t =
  t.len <- t.len - 1;
  t.data.(t.len)
let data t = t.data

(* Serialization: length then each element as a zigzag varint (vectors
   holding [min_int] sentinels round-trip).  The decoded vector's
   capacity is exactly its length — iteration order and contents are
   bit-identical to the source, which the snapshot layer relies on. *)

let encode buf t =
  Binio_core.add_uvarint buf t.len;
  for i = 0 to t.len - 1 do
    Binio_core.add_varint buf t.data.(i)
  done

let decode r =
  let len = Binio_core.read_uvarint r in
  if len < 0 || len > Binio_core.remaining r then
    Binio_core.fail "int_vec length %d overruns input" len;
  let t = create len in
  for _ = 1 to len do
    push t (Binio_core.read_varint r)
  done;
  t
