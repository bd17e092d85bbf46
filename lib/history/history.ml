type t = { txns : Txn.t array; num_sessions : int; num_keys : int }

let init_id = 0

let init_txn ~num_keys =
  let ops = List.init num_keys (fun k -> Op.Write (k, 0)) in
  Txn.make ~id:init_id ~session:0 ~start_ts:min_int ~commit_ts:min_int ops

(* [all] must already start with the initial transaction at position 0;
   [of_array] validates positions 1.. like [make] always did.  Slices
   validate independently (the checks are per-transaction), so the
   parallel binary loader hands its decoded array straight here. *)
let of_array ?pool ~num_keys ~num_sessions all =
  ignore
    (Pool.map_slices pool ~n:(Array.length all) (fun lo hi ->
         for i = lo to hi - 1 do
           let t : Txn.t = all.(i) in
           if t.id <> i then
             invalid_arg
               (Printf.sprintf "History.make: txn at position %d has id %d" i
                  t.id);
           if i > 0 && (t.session < 1 || t.session > num_sessions) then
             invalid_arg
               (Printf.sprintf "History.make: T%d has session %d out of [1,%d]"
                  t.id t.session num_sessions);
           Array.iter
             (fun op ->
               let k = Op.key op in
               if k < 0 || k >= num_keys then
                 invalid_arg
                   (Printf.sprintf
                      "History.make: T%d accesses key %d out of [0,%d)" t.id k
                      num_keys))
             t.ops
         done));
  { txns = all; num_sessions; num_keys }

let make ~num_keys ~num_sessions txns =
  of_array ~num_keys ~num_sessions
    (Array.of_list (init_txn ~num_keys :: txns))

let txn h id = h.txns.(id)
let num_txns h = Array.length h.txns

let committed h =
  Array.to_list h.txns |> List.filter Txn.is_committed

let committed_count h =
  Array.fold_left (fun n t -> if Txn.is_committed t then n + 1 else n) 0 h.txns

let session_chain h s =
  Array.to_list h.txns
  |> List.filter (fun (t : Txn.t) -> t.session = s && Txn.is_committed t)
  |> List.map (fun (t : Txn.t) -> t.id)

let so_pairs h =
  let acc = ref [] in
  for s = 1 to h.num_sessions do
    match session_chain h s with
    | [] -> ()
    | first :: _ as chain ->
        acc := (init_id, first) :: !acc;
        let rec link = function
          | a :: (b :: _ as rest) ->
              acc := (a, b) :: !acc;
              link rest
          | [ _ ] | [] -> ()
        in
        link chain
  done;
  List.rev !acc

let iter_so_pairs h f =
  (* Single pass in id order (id order refines session order): remember
     the last committed txn per session, emit (prev, next) as we go.
     Same pair multiset as [so_pairs], no list materialization. *)
  let last = Array.make (h.num_sessions + 1) (-1) in
  Array.iter
    (fun (t : Txn.t) ->
      if Txn.is_committed t && t.id <> init_id then begin
        let s = t.session in
        f (if last.(s) < 0 then init_id else last.(s)) t.id;
        last.(s) <- t.id
      end)
    h.txns

let rt_before h t1 t2 =
  let a = h.txns.(t1) and b = h.txns.(t2) in
  a.commit_ts < b.start_ts

(* The duplicate-value screen.  A key whose written values strictly
   increase in scan order cannot hold a duplicate — the shape every
   monotone value generator produces — so one serial pass keeps each
   key's last value and flags only the keys where a value does not
   exceed the one before.  Ids equal positions (see [of_array]), so a
   write's txn position is also its writer. *)
let unique_values ?pool h =
  let last = Array.make h.num_keys min_int in
  let flagged = Bytes.make h.num_keys '\000' in
  let any = ref false in
  Array.iter
    (fun (t : Txn.t) ->
      let ops = t.ops in
      for i = 0 to Array.length ops - 1 do
        match ops.(i) with
        | Op.Write (k, v) ->
            if v > last.(k) then last.(k) <- v
            else begin
              Bytes.set flagged k '\001';
              any := true
            end
        | Op.Read _ -> ()
      done)
    h.txns;
  if not !any then Ok ()
  else begin
    (* Sort path: the flagged keys' writes are counting-sorted into one
       flat slice per key, in scan order, and each slice is sorted
       stably by value.  A duplicate is then an adjacent pair of equal
       values by different writers, reported at the later write.  The
       earliest such write by (txn position, op index) is the one a
       scan-order (key, value) -> first-writer table fires on first,
       and every write of that value before it is by the first writer,
       so the pair, and the message, is the same for every pool. *)
    let off = Array.make (h.num_keys + 1) 0 in
    let iter_flagged f =
      Array.iteri
        (fun ti (t : Txn.t) ->
          Array.iteri
            (fun oi op ->
              match op with
              | Op.Write (k, v) when Bytes.get flagged k = '\001' ->
                  f ti oi k v
              | Op.Write _ | Op.Read _ -> ())
            t.ops)
        h.txns
    in
    iter_flagged (fun _ _ k _ -> off.(k + 1) <- off.(k + 1) + 1);
    for k = 1 to h.num_keys do
      off.(k) <- off.(k) + off.(k - 1)
    done;
    let n = off.(h.num_keys) in
    let value = Array.make n 0 and pos = Array.make n 0 in
    let op_idx = Array.make n 0 in
    let cur = Array.sub off 0 h.num_keys in
    iter_flagged (fun ti oi k v ->
        let s = cur.(k) in
        cur.(k) <- s + 1;
        value.(s) <- v;
        pos.(s) <- ti;
        op_idx.(s) <- oi);
    let keys = Int_vec.create 16 in
    Bytes.iteri (fun k c -> if c = '\001' then Int_vec.push keys k) flagged;
    (* Of two candidates Some (first writer's slot, duplicate's slot,
       key), the one whose duplicate comes first in scan order. *)
    let earlier acc c =
      match (acc, c) with
      | Some (_, s1, _), Some (_, s2, _)
        when pos.(s1) < pos.(s2)
             || (pos.(s1) = pos.(s2) && op_idx.(s1) < op_idx.(s2)) ->
          acc
      | _, None -> acc
      | _, Some _ -> c
    in
    let first_dup lo hi =
      let best = ref None in
      for i = lo to hi - 1 do
        let k = Int_vec.get keys i in
        let perm = Array.init (off.(k + 1) - off.(k)) (fun j -> off.(k) + j) in
        Array.stable_sort (fun a b -> Int.compare value.(a) value.(b)) perm;
        for j = 1 to Array.length perm - 1 do
          let a = perm.(j - 1) and b = perm.(j) in
          if value.(a) = value.(b) && pos.(a) <> pos.(b) then
            best := earlier !best (Some (a, b, k))
        done
      done;
      !best
    in
    match
      Array.fold_left earlier None
        (Pool.map_slices pool ~n:(Int_vec.length keys) first_dup)
    with
    | None -> Ok ()
    | Some (a, b, k) ->
        Error
          (Printf.sprintf "writes of value %d to key %d by both T%d and T%d"
             value.(b) k pos.(a) pos.(b))
  end

let all_mini h =
  let exception Bad of int in
  try
    Array.iter
      (fun (t : Txn.t) ->
        if t.id <> init_id && not (Mini.is_mini t) then raise (Bad t.id))
      h.txns;
    Ok ()
  with Bad id -> Error (Printf.sprintf "T%d is not a mini-transaction" id)

let validate h =
  match unique_values h with Error _ as e -> e | Ok () -> all_mini h

let stats h =
  let ops =
    Array.fold_left (fun n (t : Txn.t) -> n + Array.length t.ops) 0 h.txns
  in
  Printf.sprintf "%d txns (%d committed) / %d sessions / %d keys / %d ops"
    (num_txns h - 1)
    (committed_count h - 1)
    h.num_sessions h.num_keys ops

let pp ppf h =
  Format.fprintf ppf "@[<v>history: %s" (stats h);
  Array.iter
    (fun t ->
      if (t : Txn.t).id <> init_id then Format.fprintf ppf "@,%a" Txn.pp t)
    h.txns;
  Format.fprintf ppf "@]"
