(* Open-addressing hash map over native int keys: two flat int arrays and
   linear probing, so a packed (key, value) lookup boxes no tuple per
   probe the way the polymorphic [Hashtbl] of the seed did.  Values are
   restricted to [>= 0] (transaction ids, dense group ids), which lets
   [-1] in the value array double as the empty-slot marker — no
   separate occupancy array. *)

type t = {
  mutable keys : int array;  (* meaningful only where vals.(i) >= 0 *)
  mutable vals : int array;  (* -1 marks an empty slot *)
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable size : int;
}

let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (2 * c)

let create ?(capacity = 16) () =
  let cap = ceil_pow2 (Stdlib.max 16 capacity) 16 in
  { keys = Array.make cap 0; vals = Array.make cap (-1); mask = cap - 1;
    size = 0 }

let length t = t.size

(* Fibonacci-style multiplicative mixing; multiplication wraps, which is
   fine for a hash.  The xor-shift folds the high bits down so the
   [land mask] truncation still sees them. *)
let slot t k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land t.mask

(* Index of [k]'s slot if present, of the insertion slot otherwise. *)
let probe t k =
  let i = ref (slot t k) in
  while t.vals.(!i) >= 0 && t.keys.(!i) <> k do
    i := (!i + 1) land t.mask
  done;
  !i

let get t k =
  let i = probe t k in
  t.vals.(i)

let mem t k = get t k >= 0

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = 2 * Array.length old_vals in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap (-1);
  t.mask <- cap - 1;
  for i = 0 to Array.length old_vals - 1 do
    if old_vals.(i) >= 0 then begin
      let j = probe t old_keys.(i) in
      t.keys.(j) <- old_keys.(i);
      t.vals.(j) <- old_vals.(i)
    end
  done

let set t k v =
  if v < 0 then invalid_arg "Flat_index.set: values must be >= 0";
  let i = probe t k in
  if t.vals.(i) >= 0 then t.vals.(i) <- v
  else begin
    (* Keep the load factor at or below 1/2. *)
    if 2 * (t.size + 1) > Array.length t.vals then grow t;
    let i = probe t k in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

(* Backward-shift deletion: later entries of the probe run move back
   into the hole, so lookups never meet a tombstone and a table that
   removes as much as it adds stays as fast as a fresh one. *)
let remove t k =
  let i = probe t k in
  if t.vals.(i) >= 0 then begin
    t.size <- t.size - 1;
    t.vals.(i) <- -1;
    let mask = t.mask in
    let hole = ref i and j = ref i and scanning = ref true in
    while !scanning do
      j := (!j + 1) land mask;
      if t.vals.(!j) < 0 then scanning := false
      else begin
        let h = slot t t.keys.(!j) in
        (* the entry may stay iff its home slot lies cyclically in
           (hole, j]; otherwise it moves back into the hole *)
        let stays =
          if !j > !hole then h > !hole && h <= !j else h > !hole || h <= !j
        in
        if not stays then begin
          t.keys.(!hole) <- t.keys.(!j);
          t.vals.(!hole) <- t.vals.(!j);
          t.vals.(!j) <- -1;
          hole := !j
        end
      end
    done
  end

(* Snapshot codec: size then the live (key, value) pairs in slot order.
   Decode re-inserts into a fresh map — probe layout is unobservable
   (the interface is get/set/mem), so re-insertion is equivalence-
   preserving. *)

let encode buf t =
  Binio_core.add_uvarint buf t.size;
  for i = 0 to Array.length t.vals - 1 do
    if t.vals.(i) >= 0 then begin
      Binio_core.add_varint buf t.keys.(i);
      Binio_core.add_uvarint buf t.vals.(i)
    end
  done

let decode r =
  let size = Binio_core.read_uvarint r in
  if size < 0 || size > Binio_core.remaining r then
    Binio_core.fail "flat_index size %d overruns input" size;
  let t = create ~capacity:(2 * size) () in
  for _ = 1 to size do
    let k = Binio_core.read_varint r in
    let v = Binio_core.read_uvarint r in
    if v < 0 then Binio_core.fail "flat_index value %d negative" v;
    set t k v
  done;
  t

let iter t f =
  for i = 0 to Array.length t.vals - 1 do
    if t.vals.(i) >= 0 then f t.keys.(i) t.vals.(i)
  done

(* Words-of-memory estimator for the online checker's GC trigger: a key
   and a value slot per binding, doubled for the 1/2 load bound, plus
   the header.  O(1), and it counts bindings, not capacity, so it falls
   when [remove] does. *)
let words t = 4 + (4 * t.size)

(* --- int-packed (key, value) pairs --- *)

(* A pair packs to [value * num_keys + key] when that cannot overflow
   (key in [0, num_keys), value >= 0 and small enough); the packing is
   then injective, so probing never confuses two pairs.  -1 when the
   pair has no collision-free packing — the rare unpackable pair
   (out-of-range key, negative or astronomically large value, e.g. from
   a hand-written or decoded history) goes to a tuple-keyed spill table
   instead, empty on every generated workload. *)
let pack_pair ~num_keys k v =
  if k >= 0 && k < num_keys && v >= 0 && v <= (max_int - k) / num_keys then
    (v * num_keys) + k
  else -1
