(* The write table: every write of every transaction, any status, in one
   key-major flat array.  Key [k]'s writes fill slots
   [key_off.(k), key_off.(k + 1)), sorted by value; equal values keep
   scan order.  [w_who] packs the writer id and its tier. *)
type table = {
  key_off : int array;
  w_value : int array;
  w_who : int array;
}

type t = {
  history : History.t;
  committed : Txn.t array;
  vertex_of_txn : int array;
  mutable table : table option;
}

type writer =
  | Final of Txn.id
  | Intermediate of Txn.id
  | Aborted of Txn.id
  | Nobody

(* Tiers in resolution order: lower wins. *)
let tier_final = 0
let tier_intermediate = 1
let tier_aborted = 2

let decode_writer who =
  if who < 0 then Nobody
  else
    let id = who lsr 2 and tier = who land 3 in
    if tier = tier_final then Final id
    else if tier = tier_intermediate then Intermediate id
    else Aborted id

(* Finality of each write, one byte per op position, into the
   caller-provided scratch [final] (length >= Array.length ops).
   Mini-transactions (<= 4 ops) use a linear rescan; larger op arrays —
   in practice only the initial transaction, whose one-write-per-key
   array would make the rescan quadratic — get one backward pass with a
   later-written-keys table. *)
let rec no_later_write ops n k j =
  j >= n
  ||
  match ops.(j) with
  | Op.Write (k', _) when k' = k -> false
  | Op.Write _ | Op.Read _ -> no_later_write ops n k (j + 1)

let mark_finals ~final ops =
  let n = Array.length ops in
  if n <= 16 then
    for i = 0 to n - 1 do
      match ops.(i) with
      | Op.Write (k, _) ->
          Bytes.unsafe_set final i
            (if no_later_write ops n k (i + 1) then '\001' else '\000')
      | Op.Read _ -> Bytes.unsafe_set final i '\000'
    done
  else begin
    let seen = Hashtbl.create (2 * n) in
    for i = n - 1 downto 0 do
      match ops.(i) with
      | Op.Write (k, _) ->
          if Hashtbl.mem seen k then Bytes.unsafe_set final i '\000'
          else begin
            Hashtbl.add seen k ();
            Bytes.unsafe_set final i '\001'
          end
      | Op.Read _ -> Bytes.unsafe_set final i '\000'
    done
  end

let final_scratch txns =
  let m =
    Array.fold_left
      (fun m (t : Txn.t) -> Stdlib.max m (Array.length t.Txn.ops))
      1 txns
  in
  Bytes.create m

(* Stable sort of the slots [lo, hi) by value, through a permutation:
   equal values keep their scan order. *)
let sort_slice w_value w_who lo hi =
  let len = hi - lo in
  let perm = Array.init len (fun j -> lo + j) in
  Array.stable_sort (fun a b -> Int.compare w_value.(a) w_value.(b)) perm;
  let vs = Array.init len (fun j -> w_value.(perm.(j))) in
  let ws = Array.init len (fun j -> w_who.(perm.(j))) in
  Array.blit vs 0 w_value lo len;
  Array.blit ws 0 w_who lo len

let sp_writers = Obs.Trace.intern "infer/index/writers"

(* One counting pass gives per-key offsets; one scatter pass in scan
   order fills the slots and flags every key whose value ever
   decreases.  Only flagged keys are sorted: a monotone value generator
   leaves none, an engine history flags almost every key.  Explicit
   loops, no per-transaction closures. *)
let build_table ?pool (h : History.t) =
  Obs.Trace.with_span sp_writers @@ fun () ->
  let num_keys = h.num_keys in
  let txns = h.txns in
  let key_off = Array.make (num_keys + 1) 0 in
  for ti = 0 to Array.length txns - 1 do
    let ops = txns.(ti).Txn.ops in
    for i = 0 to Array.length ops - 1 do
      match ops.(i) with
      | Op.Write (k, _) -> key_off.(k + 1) <- key_off.(k + 1) + 1
      | Op.Read _ -> ()
    done
  done;
  for k = 1 to num_keys do
    key_off.(k) <- key_off.(k) + key_off.(k - 1)
  done;
  let total = key_off.(num_keys) in
  let w_value = Array.make total 0 and w_who = Array.make total 0 in
  let cur = Array.sub key_off 0 num_keys in
  let flagged = Int_vec.create 16 in
  let is_flagged = Bytes.make num_keys '\000' in
  let final = final_scratch txns in
  for ti = 0 to Array.length txns - 1 do
    let t = txns.(ti) in
    let ops = t.Txn.ops in
    let committed = Txn.is_committed t in
    if committed then mark_finals ~final ops;
    for i = 0 to Array.length ops - 1 do
      match ops.(i) with
      | Op.Write (k, v) ->
          let s = cur.(k) in
          cur.(k) <- s + 1;
          if
            s > key_off.(k)
            && w_value.(s - 1) > v
            && Bytes.unsafe_get is_flagged k = '\000'
          then begin
            Bytes.unsafe_set is_flagged k '\001';
            Int_vec.push flagged k
          end;
          let tier =
            if not committed then tier_aborted
            else if Bytes.unsafe_get final i = '\001' then tier_final
            else tier_intermediate
          in
          w_value.(s) <- v;
          w_who.(s) <- (t.Txn.id lsl 2) lor tier
      | Op.Read _ -> ()
    done
  done;
  ignore
    (Pool.map_slices pool ~n:(Int_vec.length flagged) (fun lo hi ->
         for j = lo to hi - 1 do
           let k = Int_vec.get flagged j in
           sort_slice w_value w_who key_off.(k) key_off.(k + 1)
         done));
  { key_off; w_value; w_who }

let skeleton (h : History.t) =
  let n = History.num_txns h in
  let committed = Array.make (History.committed_count h) h.txns.(0) in
  let next = ref 0 in
  Array.iter
    (fun (t : Txn.t) ->
      if Txn.is_committed t then begin
        committed.(!next) <- t;
        incr next
      end)
    h.txns;
  let vertex_of_txn = Array.make n (-1) in
  Array.iteri (fun i (t : Txn.t) -> vertex_of_txn.(t.id) <- i) committed;
  { history = h; committed; vertex_of_txn; table = None }

let build ?pool (h : History.t) =
  let t = skeleton h in
  t.table <- Some (build_table ?pool h);
  t

let build_deferred (h : History.t) = skeleton h

let table t =
  match t.table with
  | Some tb -> tb
  | None ->
      let tb = build_table t.history in
      t.table <- Some tb;
      tb

let num_vertices t = Array.length t.committed

let txn_of_vertex t v = t.committed.(v)

let vertex t id =
  let v = t.vertex_of_txn.(id) in
  if v < 0 then invalid_arg (Printf.sprintf "Index.vertex: T%d is aborted" id);
  v

let num_slots t = Array.length (table t).w_value

(* Binary search for the end of [v]'s run in [k]'s slice, then walk the
   run backwards: the first slot of a tier met is that tier's last in
   scan order, and a final slot ends the walk. *)
let slot_of t k v =
  let tb = table t in
  let value = tb.w_value in
  let base = tb.key_off.(k) in
  let lo = ref base and hi = ref tb.key_off.(k + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if value.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  let best = ref (-1) and best_tier = ref (tier_aborted + 1) in
  let s = ref (!lo - 1) in
  while !best_tier > tier_final && !s >= base && value.(!s) = v do
    let tier = tb.w_who.(!s) land 3 in
    if tier < !best_tier then begin
      best := !s;
      best_tier := tier
    end;
    decr s
  done;
  !best

let final_vertex t s =
  let who = (table t).w_who.(s) in
  if who land 3 = tier_final then t.vertex_of_txn.(who lsr 2) else -1

let writer_of t k v =
  let s = slot_of t k v in
  if s < 0 then Nobody else decode_writer (table t).w_who.(s)
