(* Timestamp-assisted version orders (Vbox mode).  The chains are three
   flat parallel arrays sliced per key by [key_off] — one slot per
   committed final write — sorted by (commit_ts, vertex): the layout of
   Index's write table, with commit timestamps in place of values.
   Prediction is a binary search per read; certification (in
   Int_check.check_ts) compares the predicted slot's value with the
   value actually read and defers only the mismatches to the write
   table. *)

type mode = Ignore | Trust | Verify

let mode_name = function
  | Ignore -> "ignore"
  | Trust -> "trust"
  | Verify -> "verify"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "ignore" -> Some Ignore
  | "trust" -> Some Trust
  | "verify" -> Some Verify
  | _ -> None

let all_modes = [ Ignore; Trust; Verify ]

type diag = {
  d_key : Op.key;
  d_value : Op.value;
  d_reader : Txn.id;
  d_reader_start : int;
  d_predicted : Txn.id;
  d_predicted_commit : int;
  d_actual : Index.writer;
  d_actual_commit : int;
}

type t = {
  idx : Index.t;
  mode : mode;
  key_off : int array;
  c_vertex : int array;
  c_commit : int array;
  c_value : int array;
  op_base : int array;
  pred_slot : int array;
  slow : Bytes.t;
  mutable slow_keys : int;
  mutable fast_reads : int;
  mutable mismatched_reads : int;
  mutable diags : diag list;
  mutable bad_windows : (Txn.id * int * int) list;
}

let total_slots t = Array.length t.c_vertex

let slot_vertex t s = t.c_vertex.(s)
let slot_value t s = t.c_value.(s)
let slot_commit t s = t.c_commit.(s)
let slot_writer t s = (Index.txn_of_vertex t.idx t.c_vertex.(s)).Txn.id

let predict t k ~start_ts =
  (* Latest slot of [k] with commit_ts <= start_ts.  The bottom slot is
     the initial transaction (commit_ts = min_int), so [lo] itself is
     always a valid answer. *)
  let lo = t.key_off.(k) in
  let best = ref lo and l = ref (lo + 1) and h = ref (t.key_off.(k + 1) - 1) in
  while !l <= !h do
    let mid = (!l + !h) / 2 in
    if t.c_commit.(mid) <= start_ts then begin
      best := mid;
      l := mid + 1
    end
    else h := mid - 1
  done;
  !best

let predict_memo t memo k ~start_ts =
  (* [predict] seeded by the caller's per-key hint (its last answer for
     this key).  Scans in committed order see mostly increasing start
     timestamps, so the answer is usually the hint itself or a slot or
     two above — a short forward walk instead of a binary search.  The
     hint only picks the starting point; the returned slot is exactly
     [predict]'s. *)
  let m = memo.(k) in
  let p =
    if m >= 0 && t.c_commit.(m) <= start_ts then begin
      let hi = t.key_off.(k + 1) in
      let p = ref m in
      while !p + 1 < hi && t.c_commit.(!p + 1) <= start_ts do
        incr p
      done;
      !p
    end
    else predict t k ~start_ts
  in
  memo.(k) <- p;
  p

(* Prediction cache: the certification pass ({!Int_check.check_ts})
   predicts every external read once; recording the slot per (committed
   position, op index) lets the dependency builder skip re-running the
   binary searches.  Slices own disjoint committed ranges, so the flat
   array is written race-free. *)
let cache_slot t ~sv ~op p = t.pred_slot.(t.op_base.(sv) + op) <- p

let cached_slot t ~sv ~op = t.pred_slot.(t.op_base.(sv) + op)

let is_fast_key t k =
  match t.mode with
  | Trust -> true
  | Verify | Ignore -> Bytes.unsafe_get t.slow k = '\000'

let mark_slow t k =
  if Bytes.get t.slow k = '\000' then begin
    Bytes.set t.slow k '\001';
    t.slow_keys <- t.slow_keys + 1
  end

let max_diags = 8

let add_diag t d =
  if List.length t.diags < max_diags then t.diags <- d :: t.diags

(* Sort the chain slice [lo, hi) of three parallel arrays by
   (commit_ts, vertex), through a permutation. *)
let sort_segment c_vertex c_commit c_value lo hi =
  let len = hi - lo in
  let perm = Array.init len (fun i -> lo + i) in
  Array.sort
    (fun a b ->
      let c = compare c_commit.(a) c_commit.(b) in
      if c <> 0 then c else compare c_vertex.(a) c_vertex.(b))
    perm;
  let tv = Array.init len (fun i -> c_vertex.(perm.(i))) in
  let tc = Array.init len (fun i -> c_commit.(perm.(i))) in
  let tl = Array.init len (fun i -> c_value.(perm.(i))) in
  Array.blit tv 0 c_vertex lo len;
  Array.blit tc 0 c_commit lo len;
  Array.blit tl 0 c_value lo len

let sp_chains = Obs.Trace.intern "check/ts/chains"

let chains ?pool ~mode (idx : Index.t) =
  let num_keys = idx.Index.history.History.num_keys in
  let committed = idx.Index.committed in
  let m = Array.length committed in
  (* Both passes walk the committed transactions in vertex order and
     mark each one's final writes into one scratch buffer. *)
  let final = Index.final_scratch committed in
  (* Pass A (serial): per-key counts of committed final writes, and the
     per-vertex op offsets of the prediction cache. *)
  let key_off = Array.make (num_keys + 1) 0 in
  let op_base = Array.make (m + 1) 0 in
  for sv = 0 to m - 1 do
    let ops = committed.(sv).Txn.ops in
    Index.mark_finals ~final ops;
    for i = 0 to Array.length ops - 1 do
      match ops.(i) with
      | Op.Write (k, _) when Bytes.unsafe_get final i = '\001' ->
          key_off.(k + 1) <- key_off.(k + 1) + 1
      | Op.Write _ | Op.Read _ -> ()
    done;
    op_base.(sv + 1) <- op_base.(sv) + Array.length ops
  done;
  for k = 1 to num_keys do
    key_off.(k) <- key_off.(k) + key_off.(k - 1)
  done;
  let total = key_off.(num_keys) in
  let c_vertex = Array.make total 0 in
  let c_commit = Array.make total 0 in
  let c_value = Array.make total 0 in
  (* Pass B (serial): fill slots in scan order within each key.  Within
     a key the vertices increase, so a chain is out of (commit_ts,
     vertex) order iff a commit timestamp decreases: flag those keys. *)
  let cur = Array.sub key_off 0 num_keys in
  let unsorted = Int_vec.create 16 in
  let is_unsorted = Bytes.make num_keys '\000' in
  let bad_windows = ref [] and bad_count = ref 0 in
  for sv = 0 to m - 1 do
    let t = committed.(sv) in
    let ops = t.Txn.ops in
    if
      mode = Verify && sv > 0
      && t.Txn.start_ts > t.Txn.commit_ts
      && !bad_count < max_diags
    then begin
      bad_windows := (t.Txn.id, t.Txn.start_ts, t.Txn.commit_ts) :: !bad_windows;
      incr bad_count
    end;
    Index.mark_finals ~final ops;
    for i = 0 to Array.length ops - 1 do
      match ops.(i) with
      | Op.Write (k, v) when Bytes.unsafe_get final i = '\001' ->
          let s = cur.(k) in
          cur.(k) <- s + 1;
          if
            s > key_off.(k)
            && c_commit.(s - 1) > t.Txn.commit_ts
            && Bytes.unsafe_get is_unsorted k = '\000'
          then begin
            Bytes.unsafe_set is_unsorted k '\001';
            Int_vec.push unsorted k
          end;
          c_vertex.(s) <- sv;
          c_commit.(s) <- t.Txn.commit_ts;
          c_value.(s) <- v
      | Op.Write _ | Op.Read _ -> ()
    done
  done;
  (* Pass C: sort the flagged keys' chains, on the pool.  Keys own
     disjoint slices of the shared arrays, so any cut of them into
     slices sorts to the same chains. *)
  ignore
    (Pool.map_slices pool ~n:(Int_vec.length unsorted) (fun lo hi ->
         for j = lo to hi - 1 do
           let k = Int_vec.get unsorted j in
           sort_segment c_vertex c_commit c_value key_off.(k) key_off.(k + 1)
         done));
  {
    idx;
    mode;
    key_off;
    c_vertex;
    c_commit;
    c_value;
    op_base;
    pred_slot = Array.make (Stdlib.max 1 op_base.(m)) (-1);
    slow = Bytes.make num_keys '\000';
    slow_keys = 0;
    fast_reads = 0;
    mismatched_reads = 0;
    diags = [];
    bad_windows = List.rev !bad_windows;
  }

let build ?pool ~mode (idx : Index.t) =
  if mode = Ignore then invalid_arg "Ts.build: mode must be trust or verify";
  Obs.Trace.with_span sp_chains @@ fun () ->
  let screen =
    if mode = Verify then History.unique_values ?pool idx.Index.history
    else Ok ()
  in
  match screen with
  | Error msg -> Error msg
  | Ok () -> Ok (chains ?pool ~mode idx)

let pp_actual buf idx = function
  | Index.Final w ->
      let c = (Index.txn_of_vertex idx (Index.vertex idx w)).Txn.commit_ts in
      Printf.bprintf buf "T%d (commit_ts %d)" w c
  | Index.Intermediate w -> Printf.bprintf buf "an intermediate write of T%d" w
  | Index.Aborted w -> Printf.bprintf buf "aborted T%d" w
  | Index.Nobody -> Buffer.add_string buf "no recorded write"

let render_report t =
  if t.mismatched_reads = 0 && t.bad_windows = [] then None
  else begin
    let buf = Buffer.create 256 in
    Printf.bprintf buf
      "timestamp certification: %d of %d external reads disagree with the \
       timestamp-predicted writer; %d key(s) fell back to value inference\n"
      t.mismatched_reads
      (t.fast_reads + t.mismatched_reads)
      t.slow_keys;
    List.iter
      (fun d ->
        Printf.bprintf buf
          "  T%d read x%d=%d (start_ts %d): timestamps predict writer T%d \
           (commit_ts %d) but the value came from "
          d.d_reader d.d_key d.d_value d.d_reader_start d.d_predicted
          d.d_predicted_commit;
        pp_actual buf t.idx d.d_actual;
        Buffer.add_char buf '\n')
      (List.rev t.diags);
    if t.mismatched_reads > List.length t.diags then
      Printf.bprintf buf "  ... (%d more mismatched reads)\n"
        (t.mismatched_reads - List.length t.diags);
    List.iter
      (fun (id, s, c) ->
        Printf.bprintf buf "  T%d has start_ts %d > commit_ts %d\n" id s c)
      t.bad_windows;
    Some (Buffer.contents buf)
  end
