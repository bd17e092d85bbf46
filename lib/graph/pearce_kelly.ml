(* Flat incremental topological order maintenance (Pearce & Kelly, 2006).

   The seed kept one (int, unit) Hashtbl per vertex and direction and
   allocated two fresh hashtables (visited, parent) plus several sorted
   lists per reordering insert — the reorder itself did [List.nth pool i]
   inside [List.iteri], O(k²) in the affected-region size k.  This
   version is flat ints end to end:

   - adjacency: one growable {!Int_vec} per vertex and direction;
   - edge membership: a single open-addressed int set over packed
     [(u lsl 31) lor v] keys (backward-shift deletion, no tombstones, so
     the SAT solver's backtracking [remove_edge] stays cheap);
   - DFS scratch: epoch-stamped mark/parent arrays and reusable stack
     vectors, so discovery allocates nothing;
   - reorder: in-place heapsort of the two affected regions by current
     order index, then a linear merge of their index pools — O(k log k)
     and allocation-free.

   Capacity grows in place ({!ensure}): new vertices are isolated and
   take the largest order indices, so existing edges and the maintained
   order survive a grow — callers no longer replay their edge list. *)

type t = {
  mutable n : int;
  mutable succ : Int_vec.t array;
  mutable pred : Int_vec.t array;
  mutable adj_words : int;  (* summed capacity of every succ/pred vector *)
  mutable ord : int array;  (* vertex -> topological index (a permutation) *)
  (* open-addressed edge set over packed (u, v); -1 marks an empty slot *)
  mutable eset : int array;
  mutable emask : int;  (* capacity - 1; capacity is a power of two *)
  mutable ecount : int;
  (* reusable DFS / reorder scratch *)
  mutable mark : int array;  (* epoch stamps: mark.(v) = epoch <=> visited *)
  mutable epoch : int;
  mutable parent : int array;  (* valid only for vertices marked this epoch *)
  stack : Int_vec.t;
  df : Int_vec.t;  (* forward-affected region *)
  db : Int_vec.t;  (* backward-affected region *)
  pool : Int_vec.t;  (* merged order-index pool *)
}

let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (2 * c)

let create n =
  let cap = ceil_pow2 (Stdlib.max 16 n) 16 in
  {
    n;
    succ = Array.init n (fun _ -> Int_vec.create 4);
    pred = Array.init n (fun _ -> Int_vec.create 4);
    adj_words = 8 * n;
    ord = Array.init n (fun i -> i);
    eset = Array.make cap (-1);
    emask = cap - 1;
    ecount = 0;
    mark = Array.make n 0;
    epoch = 0;
    parent = Array.make n (-1);
    stack = Int_vec.create 64;
    df = Int_vec.create 64;
    db = Int_vec.create 64;
    pool = Int_vec.create 64;
  }

let n t = t.n
let num_edges t = t.ecount

let ensure t needed =
  if needed > t.n then begin
    let old_n = t.n and old_succ = t.succ and old_pred = t.pred in
    t.succ <-
      Array.init needed (fun i ->
          if i < old_n then old_succ.(i) else Int_vec.create 4);
    t.pred <-
      Array.init needed (fun i ->
          if i < old_n then old_pred.(i) else Int_vec.create 4);
    t.adj_words <- t.adj_words + (8 * (needed - old_n));
    (* new vertices are isolated: giving them their own index extends the
       permutation with the largest order positions, which any existing
       topological order is consistent with *)
    let ord = Array.init needed (fun i -> i) in
    Array.blit t.ord 0 ord 0 old_n;
    t.ord <- ord;
    let mark = Array.make needed 0 in
    Array.blit t.mark 0 mark 0 old_n;
    t.mark <- mark;
    let parent = Array.make needed (-1) in
    Array.blit t.parent 0 parent 0 old_n;
    t.parent <- parent;
    t.n <- needed
  end

(* --- edge-membership set --- *)

let pack u v = (u lsl 31) lor v

let eslot mask k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 31)) land mask

(* Index of [k]'s slot if present, of the insertion slot otherwise. *)
let eprobe t k =
  let i = ref (eslot t.emask k) in
  while t.eset.(!i) <> -1 && t.eset.(!i) <> k do
    i := (!i + 1) land t.emask
  done;
  !i

let egrow t =
  let old = t.eset in
  let cap = 2 * Array.length old in
  t.eset <- Array.make cap (-1);
  t.emask <- cap - 1;
  Array.iter (fun k -> if k <> -1 then t.eset.(eprobe t k) <- k) old

let eadd t k =
  (* keep the load factor at or below 1/2 *)
  if 2 * (t.ecount + 1) > Array.length t.eset then egrow t;
  let i = eprobe t k in
  if t.eset.(i) <> k then begin
    t.eset.(i) <- k;
    t.ecount <- t.ecount + 1
  end

let eremove t k =
  let i = eprobe t k in
  if t.eset.(i) = k then begin
    t.ecount <- t.ecount - 1;
    t.eset.(i) <- -1;
    (* backward-shift deletion: re-seat later entries of the probe run so
       lookups never need tombstones *)
    let mask = t.emask in
    let hole = ref i and j = ref i and scanning = ref true in
    while !scanning do
      j := (!j + 1) land mask;
      let k' = t.eset.(!j) in
      if k' = -1 then scanning := false
      else begin
        let h = eslot mask k' in
        (* the entry may stay iff its home slot lies cyclically in
           (hole, j]; otherwise it moves back into the hole *)
        let stays =
          if !j > !hole then h > !hole && h <= !j else h > !hole || h <= !j
        in
        if not stays then begin
          t.eset.(!hole) <- k';
          t.eset.(!j) <- -1;
          hole := !j
        end
      end
    done
  end

let mem_edge t u v = t.eset.(eprobe t (pack u v)) <> -1

(* --- adjacency --- *)

let vec_remove vec x =
  let len = Int_vec.length vec in
  let rec find i =
    if i >= len then -1 else if Int_vec.get vec i = x then i else find (i + 1)
  in
  let i = find 0 in
  if i >= 0 then begin
    Int_vec.set vec i (Int_vec.get vec (len - 1));
    ignore (Int_vec.pop vec)
  end

(* Push onto an adjacency vector, charging any capacity doubling to
   [adj_words] — the only place a vector's capacity changes between
   rebuilds ([remove_edge] only shrinks lengths). *)
let push_adj t vec x =
  let cap = Array.length (Int_vec.data vec) in
  Int_vec.push vec x;
  t.adj_words <- t.adj_words + Array.length (Int_vec.data vec) - cap

let record_edge t u v =
  push_adj t t.succ.(u) v;
  push_adj t t.pred.(v) u;
  eadd t (pack u v)

let remove_edge t u v =
  if mem_edge t u v then begin
    eremove t (pack u v);
    vec_remove t.succ.(u) v;
    vec_remove t.pred.(v) u
  end

let order_index t v = t.ord.(v)

(* --- affected-region discovery --- *)

(* Forward DFS from [v] over vertices with ord <= ub, collecting the
   visited set into [t.df].  Returns [true] if [target] was reached, in
   which case the parent chain from [target] back to [v] is valid. *)
let dfs_forward t v ~ub ~target =
  t.epoch <- t.epoch + 1;
  let ep = t.epoch in
  Int_vec.clear t.df;
  Int_vec.clear t.stack;
  t.mark.(v) <- ep;
  Int_vec.push t.stack v;
  Int_vec.push t.df v;
  let hit = ref false in
  while (not !hit) && Int_vec.length t.stack > 0 do
    let x = Int_vec.pop t.stack in
    let sv = t.succ.(x) in
    let deg = Int_vec.length sv in
    let i = ref 0 in
    while (not !hit) && !i < deg do
      let w = Int_vec.get sv !i in
      if t.ord.(w) <= ub && t.mark.(w) <> ep then begin
        t.parent.(w) <- x;
        if w = target then hit := true
        else begin
          t.mark.(w) <- ep;
          Int_vec.push t.stack w;
          Int_vec.push t.df w
        end
      end;
      incr i
    done
  done;
  !hit

(* Backward DFS from [u] over vertices with ord >= lb, into [t.db]. *)
let dfs_backward t u ~lb =
  t.epoch <- t.epoch + 1;
  let ep = t.epoch in
  Int_vec.clear t.db;
  Int_vec.clear t.stack;
  t.mark.(u) <- ep;
  Int_vec.push t.stack u;
  Int_vec.push t.db u;
  while Int_vec.length t.stack > 0 do
    let x = Int_vec.pop t.stack in
    let pv = t.pred.(x) in
    for i = 0 to Int_vec.length pv - 1 do
      let w = Int_vec.get pv i in
      if t.ord.(w) >= lb && t.mark.(w) <> ep then begin
        t.mark.(w) <- ep;
        Int_vec.push t.stack w;
        Int_vec.push t.db w
      end
    done
  done

(* [v; ...; target] along the parent chain left by a hit dfs_forward. *)
let build_path t ~v ~target =
  let rec path acc x = if x = v then x :: acc else path (x :: acc) t.parent.(x) in
  path [] target

(* In-place heapsort of [vec]'s prefix keyed by current order index —
   ord is a permutation, so keys are distinct and the result order is
   deterministic. *)
let sort_by_ord t vec =
  let a = Int_vec.data vec and len = Int_vec.length vec in
  let ord = t.ord in
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && ord.(a.(l + 1)) > ord.(a.(l)) then l + 1 else l in
      if ord.(a.(c)) > ord.(a.(i)) then begin
        swap i c;
        sift c len
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for i = len - 1 downto 1 do
    swap 0 i;
    sift 0 i
  done

let sp_reorder = Obs.Trace.intern "pk/reorder"

let c_inserts =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Edges accepted into the incremental topological order"
    "mtc_pk_inserts_total"

let c_reorders =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Accepted edges that required reordering an affected region"
    "mtc_pk_reorders_total"

let add_edge t u v =
  if u = v then Error [ u ]
  else if mem_edge t u v then Ok ()
  else if t.ord.(u) < t.ord.(v) then begin
    (* already consistent with the order: just record *)
    record_edge t u v;
    Obs.Counter.incr c_inserts;
    Ok ()
  end
  else if dfs_forward t v ~ub:t.ord.(u) ~target:u then
    (* v reaches u: the edge closes a cycle; structure unchanged *)
    Error (build_path t ~v ~target:u)
  else begin
    let t0 = Obs.Trace.enter () in
    (* affected region: ord in [ord(v), ord(u)].  delta_b (reaching u)
       takes the smallest indices of the combined pool, then delta_f
       (reachable from v) — each group keeping its internal relative
       order. *)
    dfs_backward t u ~lb:t.ord.(v);
    sort_by_ord t t.df;
    sort_by_ord t t.db;
    let ord = t.ord in
    let db = Int_vec.data t.db and nb = Int_vec.length t.db in
    let df = Int_vec.data t.df and nf = Int_vec.length t.df in
    Int_vec.clear t.pool;
    let i = ref 0 and j = ref 0 in
    while !i < nb || !j < nf do
      if !j >= nf || (!i < nb && ord.(db.(!i)) < ord.(df.(!j))) then begin
        Int_vec.push t.pool ord.(db.(!i));
        incr i
      end
      else begin
        Int_vec.push t.pool ord.(df.(!j));
        incr j
      end
    done;
    let pool = Int_vec.data t.pool in
    let k = ref 0 in
    for i = 0 to nb - 1 do
      ord.(db.(i)) <- pool.(!k);
      incr k
    done;
    for j = 0 to nf - 1 do
      ord.(df.(j)) <- pool.(!k);
      incr k
    done;
    record_edge t u v;
    Obs.Counter.incr c_inserts;
    Obs.Counter.incr c_reorders;
    Obs.Trace.exit sp_reorder t0;
    Ok ()
  end

let iter_succ t u f =
  let sv = t.succ.(u) in
  for i = 0 to Int_vec.length sv - 1 do
    f (Int_vec.get sv i)
  done

(* [adj_words] recounted over every vertex: where the vectors are
   rebuilt wholesale ({!compact}, {!decode}) and in {!check_invariant}. *)
let count_adj_words t =
  let adj = ref 0 in
  for v = 0 to t.n - 1 do
    adj :=
      !adj
      + Array.length (Int_vec.data t.succ.(v))
      + Array.length (Int_vec.data t.pred.(v))
  done;
  !adj

(* ord + mark + parent + two words of header per adjacency vector *)
let words t = (5 * t.n) + t.adj_words + Array.length t.eset

(* Watermark compaction: drop every vertex [keep] rejects and renumber
   the survivors to a dense prefix, preserving their relative
   topological order.  Soundness is the caller's obligation: no future
   edge may name a dropped vertex, and — because every recorded edge
   goes forward in the order — a dropped vertex can only be adjacent to
   other dropped vertices or appear in a survivor's pred list, where a
   traversal bounded below by a surviving vertex's order index never
   follows it.  Relative order is preserved exactly, so subsequent
   insertions discover identical affected regions and cycle witnesses
   (up to the renumbering) as the uncompacted structure would. *)
let compact ?(on_edge = fun _ _ _ _ -> ()) t ~keep =
  if Array.length keep < t.n then
    invalid_arg "Pearce_kelly.compact: keep array too short";
  let remap = Array.make t.n (-1) in
  let m = ref 0 in
  for v = 0 to t.n - 1 do
    if keep.(v) then begin
      remap.(v) <- !m;
      incr m
    end
  done;
  let m = !m in
  let old_of_new = Array.make m 0 in
  for v = 0 to t.n - 1 do
    if keep.(v) then old_of_new.(remap.(v)) <- v
  done;
  (* re-rank: walk old order positions ascending, assign dense ranks to
     survivors — an order-respecting renumbering of the permutation *)
  let inv = Array.make t.n 0 in
  for v = 0 to t.n - 1 do
    inv.(t.ord.(v)) <- v
  done;
  let ord = Array.make m 0 in
  let rank = ref 0 in
  for r = 0 to t.n - 1 do
    let v = inv.(r) in
    if keep.(v) then begin
      ord.(remap.(v)) <- !rank;
      incr rank
    end
  done;
  let filter_vec ~u vec =
    let len = Int_vec.length vec in
    let out = Int_vec.create 4 in
    for i = 0 to len - 1 do
      let w = Int_vec.get vec i in
      if keep.(w) then begin
        Int_vec.push out remap.(w);
        if u >= 0 then on_edge u w remap.(u) remap.(w)
      end
    done;
    out
  in
  let succ =
    Array.init m (fun j ->
        let u = old_of_new.(j) in
        filter_vec ~u t.succ.(u))
  in
  let pred = Array.init m (fun j -> filter_vec ~u:(-1) t.pred.(old_of_new.(j))) in
  t.n <- m;
  t.succ <- succ;
  t.pred <- pred;
  t.adj_words <- count_adj_words t;
  t.ord <- ord;
  t.eset <- Array.make 16 (-1);
  t.emask <- 15;
  t.ecount <- 0;
  for u = 0 to m - 1 do
    let sv = t.succ.(u) in
    for i = 0 to Int_vec.length sv - 1 do
      eadd t (pack u (Int_vec.get sv i))
    done
  done;
  t.mark <- Array.make (Stdlib.max 1 m) 0;
  t.parent <- Array.make (Stdlib.max 1 m) (-1);
  t.epoch <- 0;
  remap

let check_invariant t =
  let ok = ref true in
  for u = 0 to t.n - 1 do
    let sv = t.succ.(u) in
    for i = 0 to Int_vec.length sv - 1 do
      if t.ord.(u) >= t.ord.(Int_vec.get sv i) then ok := false
    done
  done;
  (* ord must be a permutation *)
  let seen = Array.make t.n false in
  Array.iter
    (fun i -> if i < 0 || i >= t.n || seen.(i) then ok := false else seen.(i) <- true)
    t.ord;
  (* adjacency, edge set and edge count must agree *)
  let edges = ref 0 in
  for u = 0 to t.n - 1 do
    let sv = t.succ.(u) in
    for i = 0 to Int_vec.length sv - 1 do
      incr edges;
      if not (mem_edge t u (Int_vec.get sv i)) then ok := false
    done
  done;
  if !edges <> t.ecount then ok := false;
  if t.adj_words <> count_adj_words t then ok := false;
  !ok

(* Snapshot codec.  The succ/pred vectors and the order permutation are
   serialized verbatim: DFS discovery iterates succ (forward) and pred
   (backward) in push order and ties are broken by [ord], so a restored
   graph renders byte-identical cycle witnesses.  The edge set, edge
   count and scratch arrays are derivable — rebuilt on decode. *)

let encode buf t =
  Binio_core.add_uvarint buf t.n;
  for v = 0 to t.n - 1 do
    Binio_core.add_uvarint buf t.ord.(v)
  done;
  for v = 0 to t.n - 1 do
    Int_vec.encode buf t.succ.(v)
  done;
  for v = 0 to t.n - 1 do
    Int_vec.encode buf t.pred.(v)
  done

let decode r =
  let n = Binio_core.read_uvarint r in
  if n < 0 || n > Binio_core.remaining r then
    Binio_core.fail "pearce_kelly vertex count %d overruns input" n;
  let t = create n in
  let seen = Array.make (Stdlib.max 1 n) false in
  for v = 0 to n - 1 do
    let o = Binio_core.read_uvarint r in
    if o < 0 || o >= n || seen.(o) then
      Binio_core.fail "pearce_kelly order is not a permutation at vertex %d" v;
    seen.(o) <- true;
    t.ord.(v) <- o
  done;
  for v = 0 to n - 1 do
    t.succ.(v) <- Int_vec.decode r
  done;
  for v = 0 to n - 1 do
    t.pred.(v) <- Int_vec.decode r
  done;
  t.adj_words <- count_adj_words t;
  for u = 0 to n - 1 do
    let sv = t.succ.(u) in
    for i = 0 to Int_vec.length sv - 1 do
      let v = Int_vec.get sv i in
      if v < 0 || v >= n then
        Binio_core.fail "pearce_kelly successor %d out of range" v;
      eadd t (pack u v)
    done
  done;
  if not (check_invariant t) then
    Binio_core.fail "pearce_kelly snapshot violates the order invariant";
  t
