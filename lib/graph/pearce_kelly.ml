(* Flat incremental topological order maintenance (Pearce & Kelly, 2006).

   The seed kept one (int, unit) Hashtbl per vertex and direction and
   allocated two fresh hashtables (visited, parent) plus several sorted
   lists per reordering insert — the reorder itself did [List.nth pool i]
   inside [List.iteri], O(k²) in the affected-region size k.  This
   version is flat ints end to end:

   - edges: one growable {!Int_vec} per vertex and direction and nothing
     else.  A successor entry packs the edge's label above the target
     ([(label lsl 31) lor v]); a predecessor entry is the source.  An
     edge is found by scanning the shorter of its source's successors
     and its target's predecessors — every edge the online checker adds
     has a just-allocated endpoint, so that side is a handful of
     entries — and no edge-set hash table is probed, grown or kept;
   - DFS scratch: epoch-stamped mark/parent arrays and reusable stack
     vectors, so discovery allocates nothing;
   - reorder: in-place heapsort of the two affected regions by current
     position, then a linear merge of their position pools — O(k log k)
     and allocation-free.

   Vertex ids are stable.  Capacity grows in place ({!ensure}): new
   vertices are isolated and take positions above every other, so
   existing edges and the maintained order survive a grow.  {!free}
   isolates a batch of vertices by their edges, and {!fresh} hands an
   isolated id a new top position for reuse.  Positions are therefore
   distinct but not dense: a reorder only permutes the positions of the
   vertices it touches, and nothing indexes by position. *)

type t = {
  mutable n : int;
  mutable succ : Int_vec.t array;  (* entries (label lsl 31) lor target *)
  mutable pred : Int_vec.t array;  (* entries: the source *)
  mutable ord : int array;  (* vertex -> position: distinct, not dense *)
  mutable top : int;  (* above every position handed out so far *)
  mutable ecount : int;
  (* reusable DFS / reorder / free scratch *)
  mutable mark : int array;  (* epoch stamps: mark.(v) = epoch <=> visited *)
  mutable epoch : int;
  mutable parent : int array;  (* valid only for vertices marked this epoch *)
  stack : Int_vec.t;
  df : Int_vec.t;  (* forward-affected region *)
  db : Int_vec.t;  (* backward-affected region *)
  pool : Int_vec.t;  (* merged position pool *)
}

(* The adjacency of a vertex with no edges in that direction, shared by
   every such slot and never pushed to: a vertex gets its own vector at
   its first edge, so unused capacity and freed vertices hold none. *)
let no_edges = Int_vec.create 0

let create n =
  {
    n;
    succ = Array.make n no_edges;
    pred = Array.make n no_edges;
    ord = Array.init n (fun i -> i);
    top = n;
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
    let old_n = t.n in
    let n = Stdlib.max needed (2 * old_n) in
    let vecs a =
      let a' = Array.make n no_edges in
      Array.blit a 0 a' 0 old_n;
      a'
    in
    t.succ <- vecs t.succ;
    t.pred <- vecs t.pred;
    (* new vertices are isolated: positions above every existing one are
       consistent with any topological order *)
    let ord = Array.init n (fun i -> t.top + i - old_n) in
    Array.blit t.ord 0 ord 0 old_n;
    t.ord <- ord;
    t.top <- t.top + n - old_n;
    let mark = Array.make n 0 in
    Array.blit t.mark 0 mark 0 old_n;
    t.mark <- mark;
    let parent = Array.make n (-1) in
    Array.blit t.parent 0 parent 0 old_n;
    t.parent <- parent;
    t.n <- n
  end

(* --- edges --- *)

let vmask = (1 lsl 31) - 1
let max_label = (1 lsl 31) - 1

(* Index in [vec] of the first entry [e] with [e land mask = x], or -1. *)
let find vec mask x =
  let a = Int_vec.data vec and len = Int_vec.length vec in
  let i = ref 0 in
  while !i < len && a.(!i) land mask <> x do
    incr i
  done;
  if !i < len then !i else -1

let mem_edge t u v =
  let sv = t.succ.(u) and pv = t.pred.(v) in
  if Int_vec.length sv <= Int_vec.length pv then find sv vmask v >= 0
  else find pv (-1) u >= 0

let label t u v =
  let sv = t.succ.(u) in
  let i = find sv vmask v in
  if i < 0 then -1 else Int_vec.get sv i lsr 31

let swap_remove vec i =
  let len = Int_vec.length vec in
  Int_vec.set vec i (Int_vec.get vec (len - 1));
  ignore (Int_vec.pop vec)

let push_adj vecs u x =
  let vec = vecs.(u) in
  if vec == no_edges then begin
    let vec = Int_vec.create 4 in
    Int_vec.push vec x;
    vecs.(u) <- vec
  end
  else Int_vec.push vec x

let record_edge t u v lab =
  push_adj t.succ u ((lab lsl 31) lor v);
  push_adj t.pred v u;
  t.ecount <- t.ecount + 1

let remove_edge t u v =
  let i = find t.succ.(u) vmask v in
  if i >= 0 then begin
    swap_remove t.succ.(u) i;
    swap_remove t.pred.(v) (find t.pred.(v) (-1) u);
    t.ecount <- t.ecount - 1
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
      let w = Int_vec.get sv !i land vmask in
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

(* In-place heapsort of [vec]'s prefix keyed by current position —
   positions are distinct, so the result order is deterministic. *)
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

let add_labelled_edge t u v lab =
  if lab < 0 || lab > max_label then
    invalid_arg "Pearce_kelly.add_labelled_edge: label out of range";
  if u = v then Error [ u ]
  else if mem_edge t u v then Ok ()
  else if t.ord.(u) < t.ord.(v) then begin
    (* already consistent with the order: just record *)
    record_edge t u v lab;
    Obs.Counter.incr c_inserts;
    Ok ()
  end
  else if dfs_forward t v ~ub:t.ord.(u) ~target:u then
    (* v reaches u: the edge closes a cycle; structure unchanged *)
    Error (build_path t ~v ~target:u)
  else begin
    let t0 = Obs.Trace.enter () in
    (* affected region: positions in [ord(v), ord(u)].  delta_b
       (reaching u) takes the smallest positions of the combined pool,
       then delta_f (reachable from v) — each group keeping its internal
       relative order. *)
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
    record_edge t u v lab;
    Obs.Counter.incr c_inserts;
    Obs.Counter.incr c_reorders;
    Obs.Trace.exit sp_reorder t0;
    Ok ()
  end

let add_edge t u v = add_labelled_edge t u v 0

let iter_succ t u f =
  let sv = t.succ.(u) in
  for i = 0 to Int_vec.length sv - 1 do
    f (Int_vec.get sv i land vmask)
  done

(* Free a batch of vertices by their edges.  Every edge with a freed
   endpoint is counted off once: an out-edge from its source's
   successors, an in-edge from a kept vertex from the target's
   predecessors.  The kept neighbours met on the way are stamped once
   each and their vectors filtered once each afterwards, so a kept
   vertex adjacent to many freed ones — the caller's oldest, long-lived
   vertices — costs its degree once, not once per freed neighbour.  The
   filter keeps the survivors' relative order. *)
let free t vs =
  let ep = t.epoch + 1 in
  (* [ep] stamps a freed vertex, [ep + 1] a kept neighbour *)
  t.epoch <- ep + 1;
  let mark = t.mark in
  Array.iter (fun f -> mark.(f) <- ep) vs;
  let kept = t.stack in
  Int_vec.clear kept;
  let touch w =
    if mark.(w) < ep then begin
      mark.(w) <- ep + 1;
      Int_vec.push kept w
    end
  in
  Array.iter
    (fun f ->
      let sv = t.succ.(f) in
      t.ecount <- t.ecount - Int_vec.length sv;
      for i = 0 to Int_vec.length sv - 1 do
        touch (Int_vec.get sv i land vmask)
      done;
      let pv = t.pred.(f) in
      for i = 0 to Int_vec.length pv - 1 do
        let w = Int_vec.get pv i in
        if mark.(w) <> ep then begin
          t.ecount <- t.ecount - 1;
          touch w
        end
      done;
      t.succ.(f) <- no_edges;
      t.pred.(f) <- no_edges)
    vs;
  let drop_freed vec mask =
    let a = Int_vec.data vec in
    let j = ref 0 in
    for i = 0 to Int_vec.length vec - 1 do
      let x = a.(i) in
      if mark.(x land mask) <> ep then begin
        a.(!j) <- x;
        incr j
      end
    done;
    if !j < Int_vec.length vec then Int_vec.truncate vec !j
  in
  for i = 0 to Int_vec.length kept - 1 do
    let w = Int_vec.get kept i in
    drop_freed t.succ.(w) vmask;
    drop_freed t.pred.(w) (-1)
  done

let fresh t v =
  if Int_vec.length t.succ.(v) > 0 || Int_vec.length t.pred.(v) > 0 then
    invalid_arg "Pearce_kelly.fresh: the vertex has edges";
  t.ord.(v) <- t.top;
  t.top <- t.top + 1

(* Per edge: its successor and predecessor entries, plus the vectors'
   doubling slack. *)
let words t = 3 * t.ecount

(* Per vertex: position, mark, parent and the two vector slots, plus
   the headers and four slots of each direction's first vector. *)
let vertex_words = 21

let check_invariant t =
  let ok = ref true in
  let in_range v = v >= 0 && v < t.n in
  let edges = Hashtbl.create 64 in
  for u = 0 to t.n - 1 do
    let sv = t.succ.(u) in
    for i = 0 to Int_vec.length sv - 1 do
      let e = Int_vec.get sv i in
      let v = e land vmask in
      if e < 0 || (not (in_range v)) || t.ord.(u) >= t.ord.(v)
         || Hashtbl.mem edges ((u lsl 31) lor v)
      then ok := false
      else Hashtbl.replace edges ((u lsl 31) lor v) ()
    done
  done;
  (* every predecessor entry is a recorded edge, none twice *)
  let preds = ref 0 in
  for v = 0 to t.n - 1 do
    let pv = t.pred.(v) in
    for i = 0 to Int_vec.length pv - 1 do
      incr preds;
      let u = Int_vec.get pv i in
      if not (in_range u && Hashtbl.mem edges ((u lsl 31) lor v)) then ok := false
      else Hashtbl.remove edges ((u lsl 31) lor v)
    done
  done;
  if !preds <> t.ecount || Hashtbl.length edges <> 0 then ok := false;
  (* positions are distinct and below [top] *)
  let sorted = Array.copy t.ord in
  Array.sort compare sorted;
  Array.iteri
    (fun i o ->
      if o < 0 || o >= t.top || (i > 0 && sorted.(i - 1) = o) then ok := false)
    sorted;
  !ok

(* Snapshot codec.  The succ/pred vectors (labels packed in the
   successor entries) and the positions are serialized verbatim: DFS
   discovery iterates succ (forward) and pred (backward) in push order,
   so a restored graph renders byte-identical cycle witnesses.  The
   edge count and the scratch arrays are derivable — rebuilt on
   decode. *)

let encode buf t =
  Binio_core.add_uvarint buf t.n;
  Binio_core.add_uvarint buf t.top;
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
  t.top <- Binio_core.read_uvarint r;
  for v = 0 to n - 1 do
    t.ord.(v) <- Binio_core.read_uvarint r
  done;
  let vec () =
    let v = Int_vec.decode r in
    if Int_vec.length v = 0 then no_edges else v
  in
  for v = 0 to n - 1 do
    t.succ.(v) <- vec ();
    t.ecount <- t.ecount + Int_vec.length t.succ.(v)
  done;
  for v = 0 to n - 1 do
    t.pred.(v) <- vec ()
  done;
  if not (check_invariant t) then
    Binio_core.fail "pearce_kelly snapshot violates the order invariant";
  t
