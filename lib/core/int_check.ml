type kind =
  | Thin_air_read
  | Aborted_read of Txn.id
  | Future_read
  | Not_my_last_write
  | Not_my_own_write
  | Intermediate_read of Txn.id
  | Non_repeatable_reads

type violation = { txn : Txn.id; op_index : int; kind : kind }

let kind_name = function
  | Thin_air_read -> "ThinAirRead"
  | Aborted_read _ -> "AbortedRead"
  | Future_read -> "FutureRead"
  | Not_my_last_write -> "NotMyLastWrite"
  | Not_my_own_write -> "NotMyOwnWrite"
  | Intermediate_read _ -> "IntermediateRead"
  | Non_repeatable_reads -> "NonRepeatableReads"

let pp_violation ppf { txn; op_index; kind } =
  Format.fprintf ppf "%s at T%d op#%d" (kind_name kind) txn op_index;
  match kind with
  | Aborted_read w -> Format.fprintf ppf " (writer T%d, aborted)" w
  | Intermediate_read w -> Format.fprintf ppf " (intermediate write of T%d)" w
  | Thin_air_read | Future_read | Not_my_last_write | Not_my_own_write
  | Non_repeatable_reads ->
      ()

type last_access = Last_write of Op.value | Last_read of Op.value

(* Classify a read that disagrees with the in-transaction state.  [later]
   tells whether the observed value is produced by a write of the same
   transaction occurring after the read. *)
let classify_internal ~prior ~observed_is_earlier_own_write ~observed_is_later_own_write
    =
  if observed_is_later_own_write then Future_read
  else
    match prior with
    | Last_write _ ->
        if observed_is_earlier_own_write then Not_my_last_write
        else Not_my_own_write
    | Last_read _ -> Non_repeatable_reads

(* The anomaly of an external read by [reader] that resolves to
   [writer]: [None] (no allocation) for another transaction's final
   write. *)
let external_read_kind ~reader : Index.writer -> kind option = function
  | Index.Final w when w <> reader -> None
  | Index.Final _ ->
      (* The reader's own final write, read before it happened. *)
      Some Future_read
  | Index.Intermediate w ->
      if w = reader then Some Future_read else Some (Intermediate_read w)
  | Index.Aborted w -> Some (Aborted_read w)
  | Index.Nobody -> Some Thin_air_read

let check_txn_with ~resolve (t : Txn.t) =
  let ops = t.ops in
  let n = Array.length ops in
  let violations = ref [] in
  (* Mini-transactions have <= 4 ops: linear rescans of the op array
     replace the per-transaction hashtables, so the screen allocates
     nothing on the happy path. *)
  (* Position of the transaction's first own write of (k, v), or -1. *)
  let own_write_pos k v =
    let rec go j =
      if j >= n then -1
      else
        match ops.(j) with
        | Op.Write (k', v') when k' = k && v' = v -> j
        | Op.Write _ | Op.Read _ -> go (j + 1)
    in
    go 0
  in
  (* Last in-transaction access to [k] strictly before position [i]. *)
  let rec last_access k j =
    if j < 0 then None
    else
      match ops.(j) with
      | Op.Write (k', v') when k' = k -> Some (Last_write v')
      | Op.Read (k', v') when k' = k -> Some (Last_read v')
      | Op.Write _ | Op.Read _ -> last_access k (j - 1)
  in
  Array.iteri
    (fun i op ->
      match op with
      | Op.Write _ -> ()
      | Op.Read (k, v) -> (
          let record kind =
            violations := { txn = t.id; op_index = i; kind } :: !violations
          in
          match last_access k (i - 1) with
          | Some (Last_write v' | Last_read v') when v' = v -> ()
          | Some prior ->
              let p = own_write_pos k v in
              record
                (classify_internal ~prior
                   ~observed_is_earlier_own_write:(p >= 0 && p < i)
                   ~observed_is_later_own_write:(p > i))
          | None -> (
              (* External read: resolve the writer via unique values.
                 [resolve] receives the op index so the timestamp screen
                 can cache its prediction for the dependency builder. *)
              match external_read_kind ~reader:t.id (resolve i k v) with
              | None -> ()
              | Some kind -> record kind)))
    ops;
  List.rev !violations

let check_txn (idx : Index.t) t =
  check_txn_with ~resolve:(fun _ k v -> Index.writer_of idx k v) t

let check_all (idx : Index.t) =
  Array.fold_left
    (fun acc t -> acc @ check_txn idx t)
    [] idx.committed

let check ?pool idx =
  (* Vertex slices screen independently; each reports its first hit and
     the lowest committed-array position wins, which is exactly the
     sequential first-in-scan-order violation. *)
  let slices =
    Pool.map_slices pool ~n:(Array.length idx.Index.committed) (fun lo hi ->
        let rec go i =
          if i >= hi then None
          else
            match check_txn idx idx.Index.committed.(i) with
            | v :: _ -> Some (i, v)
            | [] -> go (i + 1)
        in
        go lo)
  in
  let best =
    Array.fold_left
      (fun acc hit ->
        match (acc, hit) with
        | None, hit -> hit
        | Some _, None -> acc
        | Some (i, _), Some (j, _) -> if j < i then hit else acc)
      None slices
  in
  match best with None -> Ok () | Some (_, v) -> Error v

(* Timestamp-assisted screen (Vbox mode).  External reads are judged by
   the predicted chain slot instead of the write table: [Trust] takes
   the prediction as the writer outright; [Verify] compares the slot's
   value with the value read and defers every disagreement to a serial
   judgement pass that resolves through the (lazily built) write table
   and classifies exactly like the [Ignore] screen — so verdicts stay
   identical while agreement (the common case) never touches a table. *)

(* Position of the first access to [k] — for a deferred read this is the
   read itself, since externals only arise on a key's first access. *)
let first_access_pos (t : Txn.t) k =
  let ops = t.ops in
  let rec go j =
    match ops.(j) with
    | Op.Read (k', _) | Op.Write (k', _) -> if k' = k then j else go (j + 1)
  in
  go 0

let check_ts ?pool (ts : Ts.t) =
  let idx = ts.Ts.idx in
  let committed = idx.Index.committed in
  let trust = ts.Ts.mode = Ts.Trust in
  let num_keys = idx.Index.history.History.num_keys in
  let slices =
    Pool.map_slices pool ~n:(Array.length committed) (fun lo hi ->
        let deferred = Int_vec.create 16 in
        let memo = Array.make num_keys (-1) in
        let fast = ref 0 in
        let rec go i =
          if i >= hi then None
          else begin
            let t = committed.(i) in
            let resolve op k v =
              let p = Ts.predict_memo ts memo k ~start_ts:t.Txn.start_ts in
              if trust || Ts.slot_value ts p = v then begin
                incr fast;
                Ts.cache_slot ts ~sv:i ~op p;
                Index.Final (Ts.slot_writer ts p)
              end
              else begin
                (* Certification mismatch: defer judgement.  Any id
                   different from [t.id] keeps the screen quiet here;
                   the serial merge re-resolves and classifies. *)
                Int_vec.push deferred i;
                Int_vec.push deferred k;
                Int_vec.push deferred v;
                Index.Final (-1)
              end
            in
            match check_txn_with ~resolve t with
            | v :: _ -> Some (i, v)
            | [] -> go (i + 1)
          end
        in
        let hit = go lo in
        (hit, deferred, !fast))
  in
  (* Serial merge.  Candidates are ordered by (committed position, op
     index); immediate hits and deferred judgements are min-merged so
     the winner is the sequential [Ignore] screen's first violation. *)
  let best = ref None in
  let consider i op v =
    match !best with
    | Some (bi, bo, _) when bi < i || (bi = i && bo <= op) -> ()
    | Some _ | None -> best := Some (i, op, v)
  in
  Array.iter
    (fun (hit, _, fast) ->
      ts.Ts.fast_reads <- ts.Ts.fast_reads + fast;
      match hit with
      | Some (i, v) -> consider i v.op_index v
      | None -> ())
    slices;
  let commit_of_writer = function
    | Index.Final w | Index.Intermediate w ->
        (Index.txn_of_vertex idx (Index.vertex idx w)).Txn.commit_ts
    | Index.Aborted _ | Index.Nobody -> min_int
  in
  (* Judge ALL deferred reads (no early stop): mismatch accounting must
     be complete whenever the screen passes, and when it fails the
     min-merge still picks the right winner. *)
  Array.iter
    (fun ((_ : (int * violation) option), deferred, (_ : int)) ->
      let len = Int_vec.length deferred in
      let j = ref 0 in
      while !j < len do
        let i = Int_vec.get deferred !j in
        let k = Int_vec.get deferred (!j + 1) in
        let v = Int_vec.get deferred (!j + 2) in
        j := !j + 3;
        let t = committed.(i) in
        Ts.mark_slow ts k;
        ts.Ts.mismatched_reads <- ts.Ts.mismatched_reads + 1;
        let actual = Index.writer_of idx k v in
        let p = Ts.predict ts k ~start_ts:t.Txn.start_ts in
        Ts.add_diag ts
          {
            Ts.d_key = k;
            d_value = v;
            d_reader = t.Txn.id;
            d_reader_start = t.Txn.start_ts;
            d_predicted = Ts.slot_writer ts p;
            d_predicted_commit = Ts.slot_commit ts p;
            d_actual = actual;
            d_actual_commit = commit_of_writer actual;
          };
        match external_read_kind ~reader:t.Txn.id actual with
        | None -> ()
        | Some kind ->
            let op = first_access_pos t k in
            consider i op { txn = t.Txn.id; op_index = op; kind }
      done)
    slices;
  match !best with None -> Ok () | Some (_, _, v) -> Error v
