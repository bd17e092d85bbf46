type dep = RT | SO | WR of Op.key | WW of Op.key | RW of Op.key | Rt_chain

let dep_name = function
  | RT -> "RT"
  | SO -> "SO"
  | WR _ -> "WR"
  | WW _ -> "WW"
  | RW _ -> "RW"
  | Rt_chain -> "rt*"

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

(* Per-stripe working state of the sharded build: one edge stream plus
   the reader-group machinery for the local RW composition.  A stripe
   owns the keys [k] with [stripe_of_key k = stripe], so reader groups
   (keyed by writer vertex × key) never span stripes and each stripe's
   RW composition is complete on its own. *)
type stripe = {
  (* external reads routed here by the bucket pre-pass: committed-array
     position and op index *)
  r_sv : Int_vec.t;
  r_op : Int_vec.t;
  (* the stripe's edge stream *)
  eu : Int_vec.t;
  ev : Int_vec.t;
  el : Int_vec.t;
  (* first unresolved read, as (sv, op index, txn, key, value) *)
  mutable err_sv : int;
  mutable err_op : int;
  mutable err : error option;
}

let run_stripe ?fast (idx : Index.t) num_keys st =
  let t_wrww = Obs.Trace.enter () in
  let nr0 = Int_vec.length st.r_sv in
  let groups = Flat_index.create ~capacity:(2 * nr0) () in
  let num_groups = ref 0 in
  let rd_src = Int_vec.create nr0
  and rd_key = Int_vec.create nr0
  and rd_grp = Int_vec.create nr0
  and rd_ow = Int_vec.create nr0 (* 1 iff the reader overwrites *) in
  let push u v l =
    Int_vec.push st.eu u;
    Int_vec.push st.ev v;
    Int_vec.push st.el l
  in
  let record sv k writes g =
    Int_vec.push rd_src sv;
    Int_vec.push rd_key k;
    Int_vec.push rd_grp g;
    Int_vec.push rd_ow (if writes then 1 else 0)
  in
  for r = 0 to nr0 - 1 do
    let sv = Int_vec.get st.r_sv r in
    let i = Int_vec.get st.r_op r in
    let s = idx.Index.committed.(sv) in
    let ops = s.Txn.ops in
    match ops.(i) with
    | Op.Write _ -> assert false
    | Op.Read (k, v) -> (
        match fast with
        | Some (tsi, slot_group) when Ts.is_fast_key tsi k ->
            (* Timestamp fast path: the writer is the predicted chain
               slot — certification already proved the slot's value is
               the value read (Verify) or the caller opted to trust the
               oracle.  Group ids come from the slot itself: a slot is
               in bijection with (writer vertex, key), and fast/slow
               keys never share a group, so sharing [num_groups] with
               the slow path below reproduces the value-inferred group
               numbering exactly — and hence the identical CSR. *)
            let p =
              match Ts.cached_slot tsi ~sv ~op:i with
              | -1 -> Ts.predict tsi k ~start_ts:s.Txn.start_ts
              | p -> p
            in
            let wv = Ts.slot_vertex tsi p in
            if wv <> sv then begin
              push wv sv (pack_wr k);
              let writes = Txn.writes_key_ops ops k in
              if writes then push wv sv (pack_ww k);
              let g =
                match slot_group.(p) with
                | -1 ->
                    let g = !num_groups in
                    incr num_groups;
                    slot_group.(p) <- g;
                    g
                | g -> g
              in
              record sv k writes g
            end
        | Some _ | None -> (
            match Index.writer_of idx k v with
            | Index.Final w when w <> s.id ->
                let wv = Index.vertex idx w in
                push wv sv (pack_wr k);
                let writes = Txn.writes_key_ops ops k in
                if writes then push wv sv (pack_ww k);
                let gk = (wv * num_keys) + k in
                let g =
                  match Flat_index.get groups gk with
                  | -1 ->
                      let g = !num_groups in
                      incr num_groups;
                      Flat_index.set groups gk g;
                      g
                  | g -> g
                in
                record sv k writes g
            | Index.Final _ | Index.Intermediate _ | Index.Aborted _
            | Index.Nobody ->
                if st.err = None then begin
                  st.err_sv <- sv;
                  st.err_op <- i;
                  st.err <-
                    Some (Unresolved_read { txn = s.id; key = k; value = v })
                end))
  done;
  Obs.Trace.exit sp_wrww t_wrww;
  if st.err = None then begin
    (* RW edges: T' -WR(x)-> T and T' -WW(x)-> S give T -RW(x)-> S.
       Counting sort the read records by group id, then cross readers
       with overwriters within each contiguous slice. *)
    let t_rw = Obs.Trace.enter () in
    let nr = Int_vec.length rd_src in
    let ng = !num_groups in
    let g_off = Array.make (ng + 1) 0 in
    let grp = Int_vec.data rd_grp in
    for r = 0 to nr - 1 do
      g_off.(grp.(r) + 1) <- g_off.(grp.(r) + 1) + 1
    done;
    for g = 1 to ng do
      g_off.(g) <- g_off.(g) + g_off.(g - 1)
    done;
    let members = Array.make nr 0 in
    let cursor = Array.copy g_off in
    for r = 0 to nr - 1 do
      members.(cursor.(grp.(r))) <- r;
      cursor.(grp.(r)) <- cursor.(grp.(r)) + 1
    done;
    let src = Int_vec.data rd_src
    and key = Int_vec.data rd_key
    and ow = Int_vec.data rd_ow in
    for g = 0 to ng - 1 do
      for a = g_off.(g) to g_off.(g + 1) - 1 do
        let t = src.(members.(a)) in
        let k = key.(members.(a)) in
        for b = g_off.(g) to g_off.(g + 1) - 1 do
          if ow.(members.(b)) = 1 then begin
            let s = src.(members.(b)) in
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
  (* Slot -> reader-group id, shared by all stripes: a key's slots are
     touched only by the task owning that key's stripe, so the array is
     written race-free and the stripes stay independent. *)
  let fast =
    match ts with
    | None -> None
    | Some tsi -> Some (tsi, Array.make (Ts.total_slots tsi) (-1))
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
  (* Bucket pre-pass: route every external read to its key stripe.  The
     serial scan does only the O(1)-per-op externality test (the flat
     [Txn.is_external_read] rescan, shared with [Divergence]); writer
     resolution, WR/WW emission and the RW composition — the expensive
     parts — happen inside the stripe tasks (lines 8-11, 14-15). *)
  let per = 2 * m / num_stripes in
  let stripes =
    Array.init num_stripes (fun _ ->
        {
          r_sv = Int_vec.create per;
          r_op = Int_vec.create per;
          eu = Int_vec.create per;
          ev = Int_vec.create per;
          el = Int_vec.create per;
          err_sv = max_int;
          err_op = max_int;
          err = None;
        })
  in
  let t_bucket = Obs.Trace.enter () in
  Array.iteri
    (fun sv (s : Txn.t) ->
      let ops = s.ops in
      Array.iteri
        (fun i op ->
          match op with
          | Op.Write _ -> ()
          | Op.Read (k, _) ->
              if Txn.is_external_read ops i k then begin
                let st = stripes.(stripe_of_key k) in
                Int_vec.push st.r_sv sv;
                Int_vec.push st.r_op i
              end)
        ops)
    idx.committed;
  Obs.Trace.exit sp_bucket t_bucket;
  Pool.tasks pool
    (Array.to_list
       (Array.map (fun st () -> run_stripe ?fast idx num_keys st) stripes));
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
         Keyed labels decode through per-key caches so equal labels share
         one block instead of allocating per edge; the caches are
         immutable after creation, hence safely shared by every decoding
         domain. *)
      let wr_cache = Array.init num_keys (fun k -> WR k)
      and ww_cache = Array.init num_keys (fun k -> WW k)
      and rw_cache = Array.init num_keys (fun k -> RW k) in
      let decode _stream p =
        if p = lab_rt then RT
        else if p = lab_so then SO
        else if p = lab_chain then Rt_chain
        else
          let q = p - 4 in
          let k = q lsr 2 in
          match q land 3 with
          | 0 -> wr_cache.(k)
          | 1 -> ww_cache.(k)
          | _ -> rw_cache.(k)
      in
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

let dep_edges t =
  (* Walk the frozen CSR backwards, consing forward — emits in edge order
     with no List.rev pass. *)
  let c = freeze t in
  let acc = ref [] in
  for u = Csr.n c - 1 downto 0 do
    for e = c.Csr.offsets.(u + 1) - 1 downto c.Csr.offsets.(u) do
      match c.Csr.labels.(e) with
      | (SO | WR _ | WW _) as lab -> acc := (u, lab, c.Csr.targets.(e)) :: !acc
      | RT | RW _ | Rt_chain -> ()
    done
  done;
  !acc
