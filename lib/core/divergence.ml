type instance = {
  key : Op.key;
  writer : Txn.id;
  reader1 : Txn.id * Op.value;
  reader2 : Txn.id * Op.value;
}

let pp_instance ppf { key; writer; reader1 = r1, v1; reader2 = r2, v2 } =
  Format.fprintf ppf
    "DIVERGENCE on x%d: T%d and T%d both read from T%d and wrote %d / %d" key
    r1 r2 writer v1 v2

(* Fixed, not the pool size: a diverging pair lives entirely on one key,
   so key stripes are independent and any cut of them into slices scans
   to the same hits. *)
let num_stripes = 8

(* A committed transaction S "diverges" on x if it has an external read
   R(x, v) and a final write W(x, _): it extends the version chain of the
   writer of v.  Two extenders of the same (x, v) form the pattern.

   One pass over the committed transactions, restricted to the keys of
   stripes [lo, hi), records each (x, v)'s first extender by committed
   position in a flat map keyed by the packed pair (a tuple spill takes
   the unpackable ones).  Every later extender is a hit [on_hit sv i
   first]: committed position, op index of its read, first extender's
   position.  [on_hit] returns whether to keep scanning. *)
let scan (idx : Index.t) ~lo ~hi on_hit =
  let num_keys = idx.history.History.num_keys in
  let committed = idx.committed in
  let n = Array.length committed in
  let every_key = lo = 0 && hi = num_stripes in
  let first = Flat_index.create ~capacity:(n * (hi - lo) / num_stripes) () in
  let spill : (Op.key * Op.value, int) Hashtbl.t = Hashtbl.create 16 in
  let exception Stop in
  try
    for sv = 0 to n - 1 do
      let ops = committed.(sv).Txn.ops in
      for i = 0 to Array.length ops - 1 do
        match ops.(i) with
        | Op.Read (k, v)
          when (every_key
               || (k mod num_stripes >= lo && k mod num_stripes < hi))
               && Txn.is_external_read ops i k
               && Txn.final_write ops k >= 0 -> (
            let p = Flat_index.pack_pair ~num_keys k v in
            let prev =
              if p >= 0 then Flat_index.get first p
              else Option.value (Hashtbl.find_opt spill (k, v)) ~default:(-1)
            in
            if prev < 0 then
              if p >= 0 then Flat_index.set first p sv
              else Hashtbl.replace spill (k, v) sv
            else if not (on_hit sv i prev) then raise Stop)
        | Op.Read _ | Op.Write _ -> ()
      done
    done
  with Stop -> ()

let instance (idx : Index.t) sv i prev =
  let s = idx.committed.(sv) and r = idx.committed.(prev) in
  let key = Op.key s.ops.(i) and value = Op.value s.ops.(i) in
  let written (t : Txn.t) = Op.value t.ops.(Txn.final_write t.ops key) in
  let writer =
    match Index.writer_of idx key value with
    | Index.Final w | Index.Intermediate w | Index.Aborted w -> w
    | Index.Nobody -> -1
  in
  { key; writer; reader1 = (r.id, written r); reader2 = (s.id, written s) }

(* Each slice reports its first hit in scan order; the minimum
   (committed position, op index) over slices is the first hit of the
   unstriped scan.  The writer is resolved serially afterwards, so a
   deferred index is only ever forced from the caller's domain. *)
let find ?pool idx =
  let firsts =
    Pool.map_slices pool ~n:num_stripes (fun lo hi ->
        let hit = ref None in
        scan idx ~lo ~hi (fun sv i prev ->
            hit := Some (sv, i, prev);
            false);
        !hit)
  in
  Array.fold_left
    (fun acc hit ->
      match (acc, hit) with
      | Some (asv, ai, _), Some (bsv, bi, _)
        when asv < bsv || (asv = bsv && ai < bi) ->
          acc
      | _, None -> acc
      | _, Some _ -> hit)
    None firsts
  |> Option.map (fun (sv, i, prev) -> instance idx sv i prev)

let find_all idx =
  let found = ref [] in
  scan idx ~lo:0 ~hi:num_stripes (fun sv i prev ->
      found := instance idx sv i prev :: !found;
      true);
  List.rev !found
