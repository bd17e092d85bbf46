type dep = RT | SO | WR of Op.key | WW of Op.key | RW of Op.key | Rt_chain

let pp_dep ppf = function
  | RT -> Format.pp_print_string ppf "RT"
  | SO -> Format.pp_print_string ppf "SO"
  | WR k -> Format.fprintf ppf "WR(x%d)" k
  | WW k -> Format.fprintf ppf "WW(x%d)" k
  | RW k -> Format.fprintf ppf "RW(x%d)" k
  | Rt_chain -> Format.pp_print_string ppf "rt*"

type rt_mode = No_rt | Rt_naive | Rt_sweep

type t = { idx : Index.t; num_txn_vertices : int; frozen : dep Csr.t }

let freeze t = t.frozen

type error = Unresolved_read of { txn : Txn.id; key : Op.key; value : Op.value }

let pp_error ppf (Unresolved_read { txn; key; value }) =
  Format.fprintf ppf
    "read of %d on x%d in T%d is not attributable to a committed final write"
    value key txn

(* --- real-time helpers (SSER) --- *)

(* Vertices of the Rt_sweep helper chain: helper [m + r] stands for
   "every transaction among the r+1 earliest commits has finished".
   [emit] receives each chain edge; start times binary-search the sorted
   commit times. *)
let sweep_edges ~skew (idx : Index.t) m emit =
  let by_commit = Array.init m (fun v -> v) in
  Array.sort
    (fun a b ->
      compare (Index.txn_of_vertex idx a).Txn.commit_ts
        (Index.txn_of_vertex idx b).Txn.commit_ts)
    by_commit;
  let commits =
    Array.map (fun v -> (Index.txn_of_vertex idx v).Txn.commit_ts) by_commit
  in
  for r = 0 to m - 1 do
    emit by_commit.(r) (m + r);
    if r + 1 < m then emit (m + r) (m + r + 1)
  done;
  for sv = 0 to m - 1 do
    let start = (Index.txn_of_vertex idx sv).Txn.start_ts in
    (* Largest r with commits.(r) + skew < start. *)
    let lo = ref 0 and hi = ref (m - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if commits.(mid) + skew < start then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !best >= 0 then emit (m + !best) sv
  done

(* RT edges of the naive Θ(n²) encoding.  commit + skew cannot overflow
   (logical clocks are small); start - skew would underflow on the
   initial transaction's min_int timestamps. *)
let naive_rt_edges ~skew (idx : Index.t) m emit =
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j then begin
        let a = Index.txn_of_vertex idx i and b = Index.txn_of_vertex idx j in
        if a.commit_ts + skew < b.start_ts then emit i j
      end
    done
  done

(* --- direct-to-CSR construction --- *)

(* Int-packed edge labels for the flat edge stream: 0/1/2 are the keyless
   constants, a keyed label packs as [4 + (key lsl 2) lor tag]. *)
let lab_rt = 0
let lab_so = 1
let lab_chain = 2
let pack_wr k = 4 + ((k lsl 2) lor 0)
let pack_ww k = 4 + ((k lsl 2) lor 1)
let pack_rw k = 4 + ((k lsl 2) lor 2)

let pack_label = function
  | RT -> lab_rt
  | SO -> lab_so
  | Rt_chain -> lab_chain
  | WR k -> pack_wr k
  | WW k -> pack_ww k
  | RW k -> pack_rw k

let unpack_label p =
  if p = lab_rt then RT
  else if p = lab_so then SO
  else if p = lab_chain then Rt_chain
  else
    let k = (p - 4) lsr 2 in
    match (p - 4) land 3 with 0 -> WR k | 1 -> WW k | _ -> RW k

let sp_deps = Obs.Trace.intern "infer/deps"
let sp_so = Obs.Trace.intern "infer/deps/so"
let sp_bucket = Obs.Trace.intern "infer/deps/bucket"
let sp_wrww = Obs.Trace.intern "infer/deps/wr+ww"
let sp_rw = Obs.Trace.intern "infer/deps/rw"
let sp_rt = Obs.Trace.intern "infer/deps/rt"
let sp_freeze = Obs.Trace.intern "infer/deps/freeze"

(* Number of key stripes the direct builder shards by.  Fixed — NOT the
   pool size — so the merged edge order (stream-major, scan order per
   stream) is a function of the key space only and the frozen CSR is
   bit-identical for every [-j], including no pool at all. *)
let num_stripes = 8

let stripe_of_key k = k mod num_stripes

(* Per-stripe working state of the sharded build: the stripe's external
   reads as flat records, one edge stream, and the first unresolved
   read.  A stripe owns the keys [k] with [stripe_of_key k = stripe], so
   reader groups (one per writer vertex × key) never span stripes and
   each stripe's RW composition is complete on its own. *)
type stripe = {
  (* one record per external read routed here by the bucket pass:
     committed position, op index, key, value, and 1 iff the reader also
     writes the key *)
  r_sv : Int_vec.t;
  r_op : Int_vec.t;
  r_key : Int_vec.t;
  r_val : Int_vec.t;
  r_ow : Int_vec.t;
  (* the stripe's edge stream *)
  eu : Int_vec.t;
  ev : Int_vec.t;
  el : Int_vec.t;
  (* first unresolved read, as (sv, op index, txn, key, value) *)
  mutable err_sv : int;
  mutable err_op : int;
  mutable err : error option;
}

(* Resolution and WR/WW/RW inference of one stripe, from its read
   records alone: a [Txn.t] is touched only for an error message or a
   timestamp prediction the certification pass did not cache.  Reader
   groups are numbered by the resolving slot — the chain slot on the
   timestamp path ([ts_group]), the write-table slot on the value path
   ([value_group]) — in first-appearance order in the stripe's scan
   order.  A slot is one (writer vertex, key) pair and fast and slow
   keys never share a group, so this is the numbering of a
   (writer vertex, key) map on either path, and the frozen CSR is the
   same on both.  The group arrays are shared by all stripes: a key's
   slots are touched only by the task owning its stripe. *)
let run_stripe ~ts ~value_group (idx : Index.t) st =
  let t_wrww = Obs.Trace.enter () in
  let nr = Int_vec.length st.r_sv in
  let sv_of = Int_vec.data st.r_sv
  and op_of = Int_vec.data st.r_op
  and key_of = Int_vec.data st.r_key
  and val_of = Int_vec.data st.r_val
  and ow_of = Int_vec.data st.r_ow in
  (* record -> reader group, or -1 for a read of the reader's own write *)
  let grp = Array.make nr (-1) in
  let num_groups = ref 0 in
  let push u v l =
    Int_vec.push st.eu u;
    Int_vec.push st.ev v;
    Int_vec.push st.el l
  in
  let group_of groups p =
    match groups.(p) with
    | -1 ->
        let g = !num_groups in
        incr num_groups;
        groups.(p) <- g;
        g
    | g -> g
  in
  for r = 0 to nr - 1 do
    let sv = sv_of.(r) and k = key_of.(r) in
    match ts with
    | Some (tsi, ts_group) when Ts.is_fast_key tsi k ->
        (* Timestamp fast path: the writer is the predicted chain slot —
           certification already proved the slot's value is the value
           read (Verify) or the caller opted to trust the oracle. *)
        let p =
          match Ts.cached_slot tsi ~sv ~op:op_of.(r) with
          | -1 ->
              Ts.predict tsi k
                ~start_ts:idx.Index.committed.(sv).Txn.start_ts
          | p -> p
        in
        let wv = Ts.slot_vertex tsi p in
        if wv <> sv then begin
          push wv sv (pack_wr k);
          if ow_of.(r) = 1 then push wv sv (pack_ww k);
          grp.(r) <- group_of ts_group p
        end
    | Some _ | None ->
        let p = Index.slot_of idx k val_of.(r) in
        let wv = if p < 0 then -1 else Index.final_vertex idx p in
        if wv >= 0 && wv <> sv then begin
          push wv sv (pack_wr k);
          if ow_of.(r) = 1 then push wv sv (pack_ww k);
          grp.(r) <- group_of value_group p
        end
        else if st.err = None then begin
          st.err_sv <- sv;
          st.err_op <- op_of.(r);
          st.err <-
            Some
              (Unresolved_read
                 {
                   txn = idx.Index.committed.(sv).Txn.id;
                   key = k;
                   value = val_of.(r);
                 })
        end
  done;
  Obs.Trace.exit sp_wrww t_wrww;
  if st.err = None then begin
    (* RW edges: T' -WR(x)-> T and T' -WW(x)-> S give T -RW(x)-> S.
       Counting sort the grouped records by group id, then cross readers
       with overwriters within each contiguous slice. *)
    let t_rw = Obs.Trace.enter () in
    let ng = !num_groups in
    let g_off = Array.make (ng + 1) 0 in
    for r = 0 to nr - 1 do
      let g = grp.(r) in
      if g >= 0 then g_off.(g + 1) <- g_off.(g + 1) + 1
    done;
    for g = 1 to ng do
      g_off.(g) <- g_off.(g) + g_off.(g - 1)
    done;
    let members = Array.make g_off.(ng) 0 in
    let cursor = Array.copy g_off in
    for r = 0 to nr - 1 do
      let g = grp.(r) in
      if g >= 0 then begin
        members.(cursor.(g)) <- r;
        cursor.(g) <- cursor.(g) + 1
      end
    done;
    for g = 0 to ng - 1 do
      for a = g_off.(g) to g_off.(g + 1) - 1 do
        let t = sv_of.(members.(a)) in
        let k = key_of.(members.(a)) in
        for b = g_off.(g) to g_off.(g + 1) - 1 do
          if ow_of.(members.(b)) = 1 then begin
            let s = sv_of.(members.(b)) in
            if t <> s then push t s (pack_rw k)
          end
        done
      done
    done;
    Obs.Trace.exit sp_rw t_rw
  end

let build ?(skew = 0) ?pool ?ts ~rt (idx : Index.t) =
  Obs.Trace.with_span sp_deps @@ fun () ->
  let m = Index.num_vertices idx in
  let h = idx.history in
  let num_keys = h.History.num_keys in
  (* Slot -> reader-group id for each path that can run.  Sizing the
     value path's array builds a deferred index's write table here, on
     this domain, before the stripe tasks look writers up in it. *)
  let ts =
    Option.map (fun tsi -> (tsi, Array.make (Ts.total_slots tsi) (-1))) ts
  in
  let value_path =
    match ts with None -> true | Some (tsi, _) -> tsi.Ts.slow_keys > 0
  in
  let value_group =
    if value_path then Array.make (Index.num_slots idx) (-1) else [||]
  in
  let size = match rt with Rt_sweep -> 2 * m | No_rt | Rt_naive -> m in
  (* SO edges (lines 6-7): one cheap serial pass, stream 0. *)
  let so_u = Int_vec.create m and so_v = Int_vec.create m in
  let t_so = Obs.Trace.enter () in
  History.iter_so_pairs h (fun a b ->
      Int_vec.push so_u (Index.vertex idx a);
      Int_vec.push so_v (Index.vertex idx b));
  Obs.Trace.exit sp_so t_so;
  let so_l = Array.make (Int_vec.length so_u) lab_so in
  (* Bucket pass: copy every external read into its key stripe's flat
     records.  The serial scan has each transaction's ops in hand, so it
     does the O(1)-per-op externality and overwrite tests (the flat
     [Txn] rescans, shared with [Divergence]); writer resolution, WR/WW
     emission and the RW composition — the expensive parts — happen
     inside the stripe tasks (lines 8-11, 14-15). *)
  let per = 2 * m / num_stripes in
  let stripes =
    Array.init num_stripes (fun _ ->
        {
          r_sv = Int_vec.create per;
          r_op = Int_vec.create per;
          r_key = Int_vec.create per;
          r_val = Int_vec.create per;
          r_ow = Int_vec.create per;
          eu = Int_vec.create per;
          ev = Int_vec.create per;
          el = Int_vec.create per;
          err_sv = max_int;
          err_op = max_int;
          err = None;
        })
  in
  let t_bucket = Obs.Trace.enter () in
  let committed = idx.committed in
  for sv = 0 to m - 1 do
    let ops = committed.(sv).Txn.ops in
    for i = 0 to Array.length ops - 1 do
      match ops.(i) with
      | Op.Write _ -> ()
      | Op.Read (k, v) ->
          if Txn.is_external_read ops i k then begin
            let st = stripes.(stripe_of_key k) in
            Int_vec.push st.r_sv sv;
            Int_vec.push st.r_op i;
            Int_vec.push st.r_key k;
            Int_vec.push st.r_val v;
            Int_vec.push st.r_ow (if Txn.writes_key_ops ops k then 1 else 0)
          end
    done
  done;
  Obs.Trace.exit sp_bucket t_bucket;
  Pool.tasks pool
    (Array.to_list
       (Array.map (fun st () -> run_stripe ~ts ~value_group idx st) stripes));
  (* Report the first unresolved read in scan order, whatever the stripe
     schedule, by minimising over the per-stripe (committed position,
     op index) candidates. *)
  let error = ref None in
  let best_sv = ref max_int and best_op = ref max_int in
  Array.iter
    (fun st ->
      match st.err with
      | Some _
        when st.err_sv < !best_sv
             || (st.err_sv = !best_sv && st.err_op < !best_op) ->
          best_sv := st.err_sv;
          best_op := st.err_op;
          error := st.err
      | Some _ | None -> ())
    stripes;
  match !error with
  | Some e -> Error e
  | None ->
      (* RT edges for SSER: last stream, serial (the sweep is a sort plus
         one linear emit pass). *)
      let rt_u = Int_vec.create 16 and rt_v = Int_vec.create 16 in
      let t_rt = Obs.Trace.enter () in
      let rt_lab =
        match rt with
        | No_rt -> lab_rt
        | Rt_naive ->
            naive_rt_edges ~skew idx m (fun i j ->
                Int_vec.push rt_u i;
                Int_vec.push rt_v j);
            lab_rt
        | Rt_sweep ->
            sweep_edges ~skew idx m (fun u v ->
                Int_vec.push rt_u u;
                Int_vec.push rt_v v);
            lab_chain
      in
      Obs.Trace.exit sp_rt t_rt;
      let rt_l = Array.make (Int_vec.length rt_u) rt_lab in
      (* Freeze: merge the streams — SO, then the key stripes in stripe
         order, then RT — with the parallel multi-stream counting sort.
         Labels decode through one table indexed by the packed int, so
         equal labels share one block instead of allocating per edge; the
         table is immutable after creation, hence safely shared by every
         decoding domain. *)
      let labels = Array.init (pack_wr num_keys) unpack_label in
      let decode _stream p = labels.(p) in
      let streams =
        Array.init (num_stripes + 2) (fun si ->
            if si = 0 then
              (Int_vec.data so_u, Int_vec.data so_v, so_l, Int_vec.length so_u)
            else if si <= num_stripes then begin
              let st = stripes.(si - 1) in
              ( Int_vec.data st.eu,
                Int_vec.data st.ev,
                Int_vec.data st.el,
                Int_vec.length st.eu )
            end
            else
              (Int_vec.data rt_u, Int_vec.data rt_v, rt_l, Int_vec.length rt_u))
      in
      let t_freeze = Obs.Trace.enter () in
      let csr = Csr.of_edge_streams ?pool ~n:size ~streams ~decode () in
      Obs.Trace.exit sp_freeze t_freeze;
      Ok { idx; num_txn_vertices = m; frozen = csr }

let to_txn_cycle t cycle =
  let is_helper v = v >= t.num_txn_vertices in
  (* Rotate so the cycle starts at a transaction vertex — one split at
     the first such edge, O(len), instead of the quadratic
     append-one-at-the-end shuffle. *)
  let rotate c =
    let rec split pre = function
      | ((u, _, _) :: _) as rest when not (is_helper u) -> rest @ List.rev pre
      | e :: rest -> split (e :: pre) rest
      | [] -> c (* helper vertices only; contraction copes below *)
    in
    split [] c
  in
  let cycle = rotate cycle in
  let txn_id v = (Index.txn_of_vertex t.idx v).Txn.id in
  let rec contract = function
    | [] -> []
    | (u, Rt_chain, v) :: rest when is_helper v ->
        (* Walk the helper run until it re-enters a transaction vertex. *)
        let rec skip = function
          | (_, _, w) :: rest' when is_helper w -> skip rest'
          | (_, _, w) :: rest' -> (w, rest')
          | [] -> failwith "Deps.to_txn_cycle: dangling helper run"
        in
        let exit_vertex, rest' = skip rest in
        (txn_id u, RT, txn_id exit_vertex) :: contract rest'
    | (u, lab, v) :: rest -> (txn_id u, lab, txn_id v) :: contract rest
  in
  contract cycle
