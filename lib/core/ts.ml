(* Timestamp-assisted version orders (Vbox mode).  The chains are three
   flat parallel arrays sliced per key by [key_off] — one slot per
   committed final write — sorted by (commit_ts, vertex).  Prediction is
   a binary search per read; certification (in Int_check.check_ts)
   compares the predicted slot's value with the value actually read and
   defers only the mismatches to the value tables. *)

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

(* Same stripe routing as Index/Deps: fixed, not the pool size, so the
   chain layout is identical for every [-j]. *)
let num_stripes = 8

(* Sort the chain slice [lo, hi) of three parallel arrays by
   (commit_ts, vertex).  Engines and generators commit mostly in
   timestamp order, so check sortedness first and sort through a
   permutation only when needed. *)
let sort_segment c_vertex c_commit c_value lo hi =
  let sorted = ref true in
  let s = ref (lo + 1) in
  while !sorted && !s < hi do
    let p = !s - 1 and q = !s in
    if
      c_commit.(p) > c_commit.(q)
      || (c_commit.(p) = c_commit.(q) && c_vertex.(p) > c_vertex.(q))
    then sorted := false;
    incr s
  done;
  if not !sorted then begin
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
  end

let sp_chains = Obs.Trace.intern "check/ts/chains"

let chains ?pool ~mode (idx : Index.t) =
  let h = idx.Index.history in
  let num_keys = h.History.num_keys in
  let txns = h.History.txns in
  (* Pass A (serial): per-key counts of committed final writes. *)
  let key_off = Array.make (num_keys + 1) 0 in
  (* Committed-op finality, flat in scan order, computed once on the
     index and shared with any later writer-table registration; both
     passes below walk [txns] in the same order, so per-txn offsets are
     just a running op count. *)
  let finals = Index.finals idx in
  let off = ref 0 in
  Array.iter
    (fun (t : Txn.t) ->
      let ops = t.Txn.ops in
      let n = Array.length ops in
      let committed = Txn.is_committed t in
      let base = !off in
      off := base + n;
      Array.iteri
        (fun i op ->
          match op with
          | Op.Write (k, _) ->
              if committed && Bytes.unsafe_get finals (base + i) = '\001' then
                key_off.(k + 1) <- key_off.(k + 1) + 1
          | Op.Read _ -> ())
        ops)
    txns;
  for k = 1 to num_keys do
    key_off.(k) <- key_off.(k) + key_off.(k - 1)
  done;
  let total = key_off.(num_keys) in
  let c_vertex = Array.make total 0 in
  let c_commit = Array.make total 0 in
  let c_value = Array.make total 0 in
  (* Pass B (serial): fill slots in scan order within each key. *)
  let cur = Array.sub key_off 0 num_keys in
  let bad_windows = ref [] and bad_count = ref 0 in
  off := 0;
  Array.iteri
    (fun ti (t : Txn.t) ->
      let ops = t.Txn.ops in
      let committed = Txn.is_committed t in
      let base = !off in
      off := base + Array.length ops;
      if
        mode = Verify && committed && ti > 0
        && t.Txn.start_ts > t.Txn.commit_ts
        && !bad_count < max_diags
      then begin
        bad_windows := (t.Txn.id, t.Txn.start_ts, t.Txn.commit_ts) :: !bad_windows;
        incr bad_count
      end;
      Array.iteri
        (fun oi op ->
          match op with
          | Op.Write (k, v) ->
              if committed && Bytes.unsafe_get finals (base + oi) = '\001'
              then begin
                let s = cur.(k) in
                cur.(k) <- s + 1;
                c_vertex.(s) <- Index.vertex idx t.Txn.id;
                c_commit.(s) <- t.Txn.commit_ts;
                c_value.(s) <- v
              end
          | Op.Read _ -> ())
        ops)
    txns;
  (* Pass C (striped): sort each key's chain by (commit_ts, vertex).
     Stripes own disjoint key ranges of the shared arrays, so the tasks
     share nothing mutable. *)
  Pool.tasks pool
    (List.init num_stripes (fun stripe () ->
         let k = ref stripe in
         while !k < num_keys do
           sort_segment c_vertex c_commit c_value key_off.(!k)
             key_off.(!k + 1);
           k := !k + num_stripes
         done));
  let m = Array.length idx.Index.committed in
  let op_base = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    op_base.(i + 1) <-
      op_base.(i) + Array.length idx.Index.committed.(i).Txn.ops
  done;
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
