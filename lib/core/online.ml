(* The streaming checker's hot path is flat ints end to end: a
   Pearce–Kelly graph grown in place (no edge replay on capacity
   doubling) whose successor entries carry the packed labels, and one
   version table — a slot per (key, value) pair holding its writer,
   reader and overwriter chains, SI extender, death position and
   timestamp-chain link — behind one packed-pair index.  No tuple-keyed
   hashtables outside the spill for unpackable pairs, no boxed list
   cells.  Feeding a committed
   transaction allocates a bounded amount (the transaction's own
   op-list views plus amortized vector growth), independent of how many
   transactions came before. *)

(* The Pearce–Kelly graph with dependency labels.  Each accepted edge's
   packed label rides in its successor entry, so a duplicate edge is
   accepted without touching the label or the count, a rejected
   (cycle-closing) edge leaves no label behind — the label of the
   offending edge travels with the rejection instead (see
   {!cycle_of_path}) — and a freed edge takes its label with it.
   [edge_count] is logical: the distinct edges ever accepted, which GC
   does not lower. *)
module Grow = struct
  type t = { pk : Pearce_kelly.t; mutable edge_count : int }

  let create () = { pk = Pearce_kelly.create 64; edge_count = 0 }
  let edge_count t = t.edge_count

  (* [Error path]: vertex path [v; ...; u] for the rejected edge u -> v. *)
  let add_edge t u v lab =
    let before = Pearce_kelly.num_edges t.pk in
    match Pearce_kelly.add_labelled_edge t.pk u v (Deps.pack_label lab) with
    | Ok () ->
        t.edge_count <- t.edge_count + Pearce_kelly.num_edges t.pk - before;
        Ok ()
    | Error _ as e -> e

  let label t u v =
    let p = Pearce_kelly.label t.pk u v in
    if p >= 0 then Deps.unpack_label p else Deps.Rt_chain
end

(* The version table.  Unique values make each (key, value) pair name
   exactly one version, and every value-derived edge is read off that
   version (paper Section IV): WR from its writer, WW when a reader also
   overwrites it, RW from its readers to its overwriters.  So a version
   is one slot, found through one packed-pair index (unpackable pairs
   through a tuple-keyed spill), with one column per fact: the packed
   pair, the writer, the reader- and overwriter-chain heads, the SI
   extender and its write, the death position, and the timestamp chain:
   the commit timestamp of the chained write and the key's next older
   chained slot, newest first from a per-key head.  Reader and
   overwriter cells share one cons pool; a push prepends, so a chain
   iterates newest first — the order the cycle-witness DFS observes. *)
module Versions = struct
  type t = {
    num_keys : int;
    mutable index : Flat_index.t;  (** packed pair -> slot *)
    spill : (Op.key * Op.value, int) Hashtbl.t;  (** unpackable pair -> slot *)
    mutable pair : Int_vec.t;  (** packed pair; -1 for a spill slot *)
    mutable writer : Int_vec.t;
        (** [(id lsl 2) lor tier] as in {!Index}; -1 none *)
    mutable readers : Int_vec.t;  (** chain head cell; -1 empty *)
    mutable overwriters : Int_vec.t;
    mutable ext_txn : Int_vec.t;  (** SI extender; -1 none *)
    mutable ext_write : Int_vec.t;  (** the extender's own write of the key *)
    mutable death : Int_vec.t;  (** arrival position of the death; -1 alive *)
    mutable commit : Int_vec.t;  (** commit timestamp of a chained write *)
    mutable older : Int_vec.t;
        (** next older chained slot of the key; -1 for the oldest,
            [unchained] for a slot on no chain *)
    mutable heads : Flat_index.t;  (** key -> newest chained slot *)
    mutable cell_txn : Int_vec.t;
    mutable cell_next : Int_vec.t;  (** -1 ends a chain *)
  }

  let unchained = -2

  let create ~num_keys =
    let col () = Int_vec.create 256 in
    {
      num_keys;
      index = Flat_index.create ~capacity:512 ();
      spill = Hashtbl.create 8;
      pair = col ();
      writer = col ();
      readers = col ();
      overwriters = col ();
      ext_txn = col ();
      ext_write = col ();
      death = col ();
      commit = col ();
      older = col ();
      heads = Flat_index.create ();
      cell_txn = Int_vec.create 64;
      cell_next = Int_vec.create 64;
    }

  let num_keys t = t.num_keys
  let length t = Int_vec.length t.pair

  let add t p =
    let s = length t in
    Int_vec.push t.pair p;
    Int_vec.push t.writer (-1);
    Int_vec.push t.readers (-1);
    Int_vec.push t.overwriters (-1);
    Int_vec.push t.ext_txn (-1);
    Int_vec.push t.ext_write 0;
    Int_vec.push t.death (-1);
    Int_vec.push t.commit 0;
    Int_vec.push t.older unchained;
    s

  let find t k v =
    let p = Flat_index.pack_pair ~num_keys:t.num_keys k v in
    if p >= 0 then Flat_index.get t.index p
    else match Hashtbl.find_opt t.spill (k, v) with Some s -> s | None -> -1

  let slot_packed t p =
    let s = Flat_index.get t.index p in
    if s >= 0 then s
    else begin
      let s = add t p in
      Flat_index.set t.index p s;
      s
    end

  let slot t k v =
    let p = Flat_index.pack_pair ~num_keys:t.num_keys k v in
    if p >= 0 then slot_packed t p
    else
      match Hashtbl.find_opt t.spill (k, v) with
      | Some s -> s
      | None ->
          let s = add t (-1) in
          Hashtbl.replace t.spill (k, v) s;
          s

  (* A write replaces the recorded writer unless the recorded tier is
     stronger, so the column answers what three last-set-wins tables
     consulted final, then intermediate, then aborted would. *)
  let write t k v ~tier id =
    let s = slot t k v in
    let w = Int_vec.get t.writer s in
    if w < 0 || w land 3 >= tier then
      Int_vec.set t.writer s ((id lsl 2) lor tier)

  let writer t s = Index.decode_writer (Int_vec.get t.writer s)

  let resolve t k v =
    let s = find t k v in
    if s < 0 then Index.Nobody else writer t s

  (* Pushes come in commit order (the ts modes enforce it), so each chain
     stays sorted newest first. *)
  let push_chain t k v ~commit =
    let s = slot t k v in
    if Int_vec.get t.older s <> unchained then
      invalid_arg "Online.Versions.push_chain: the slot is already chained";
    Int_vec.set t.commit s commit;
    Int_vec.set t.older s (Flat_index.get t.heads k);
    Flat_index.set t.heads k s

  (* The newest slot at or below [s] on its chain whose commit is at most
     [ts], or -1. *)
  let rec boundary t s ts =
    if s < 0 || Int_vec.get t.commit s <= ts then s
    else boundary t (Int_vec.get t.older s) ts

  let predict t k ~start_ts = boundary t (Flat_index.get t.heads k) start_ts

  (* Each chain keeps its nodes newer than [ts] and its boundary, which
     becomes the oldest; the tail below leaves the chain.  Costs the
     nodes it walks and allocates nothing. *)
  let cut t ts =
    Flat_index.iter t.heads (fun _ head ->
        let b = boundary t head ts in
        if b >= 0 then begin
          let s = ref (Int_vec.get t.older b) in
          Int_vec.set t.older b (-1);
          while !s >= 0 do
            let next = Int_vec.get t.older !s in
            Int_vec.set t.older !s unchained;
            s := next
          done
        end)

  let push t heads s x =
    let c = Int_vec.length t.cell_txn in
    Int_vec.push t.cell_txn x;
    Int_vec.push t.cell_next (Int_vec.get heads s);
    Int_vec.set heads s c

  let iter_chain t heads s f =
    let c = ref (Int_vec.get heads s) in
    while !c >= 0 do
      f (Int_vec.get t.cell_txn !c);
      c := Int_vec.get t.cell_next !c
    done

  let push_reader t s x = push t t.readers s x
  let push_overwriter t s x = push t t.overwriters s x
  let iter_readers t s f = iter_chain t t.readers s f
  let iter_overwriters t s f = iter_chain t t.overwriters s f
  let extender t s = Int_vec.get t.ext_txn s
  let extender_write t s = Int_vec.get t.ext_write s

  let set_extender t s id w =
    Int_vec.set t.ext_txn s id;
    Int_vec.set t.ext_write s w

  let death t s = Int_vec.get t.death s
  let kill t p pos = Int_vec.set t.death (slot_packed t p) pos

  let iter_txns t f =
    for s = 0 to length t - 1 do
      let w = Int_vec.get t.writer s in
      if w >= 0 && w land 3 = Index.tier_final then f (w lsr 2)
    done;
    for c = 0 to Int_vec.length t.cell_txn - 1 do
      f (Int_vec.get t.cell_txn c)
    done

  (* Keep the spill slots, the chained slots and the packed slots [keep]
     accepts, in slot order, in columns sized for the survivors; the
     timestamp links and heads follow the renumbering (every link's
     target is chained, so it survives), and each surviving reader or
     overwriter chain is re-pushed oldest first into a fresh pool. *)
  let compact t keep =
    let n = length t in
    let remap = Array.make n (-1) and m = ref 0 in
    for s = 0 to n - 1 do
      if
        Int_vec.get t.pair s < 0 || Int_vec.get t.older s <> unchained || keep s
      then begin
        remap.(s) <- !m;
        incr m
      end
    done;
    let col v =
      let v' = Int_vec.create !m in
      for s = 0 to n - 1 do
        if remap.(s) >= 0 then Int_vec.push v' (Int_vec.get v s)
      done;
      v'
    in
    t.commit <- col t.commit;
    t.older <- col t.older;
    for s = 0 to !m - 1 do
      let o = Int_vec.get t.older s in
      if o >= 0 then Int_vec.set t.older s remap.(o)
    done;
    Flat_index.iter t.heads (fun k s -> Flat_index.set t.heads k remap.(s));
    let cell_txn = Int_vec.create 64 and cell_next = Int_vec.create 64 in
    let scratch = Int_vec.create 16 in
    let to_scratch = Int_vec.push scratch in
    let rechain heads =
      let heads' = Int_vec.create !m in
      for s = 0 to n - 1 do
        if remap.(s) >= 0 then begin
          Int_vec.clear scratch;
          iter_chain t heads s to_scratch;
          let head = ref (-1) in
          for i = Int_vec.length scratch - 1 downto 0 do
            let c = Int_vec.length cell_txn in
            Int_vec.push cell_txn (Int_vec.get scratch i);
            Int_vec.push cell_next !head;
            head := c
          done;
          Int_vec.push heads' !head
        end
      done;
      heads'
    in
    let readers = rechain t.readers in
    let overwriters = rechain t.overwriters in
    t.readers <- readers;
    t.overwriters <- overwriters;
    t.cell_txn <- cell_txn;
    t.cell_next <- cell_next;
    t.pair <- col t.pair;
    t.writer <- col t.writer;
    t.ext_txn <- col t.ext_txn;
    t.ext_write <- col t.ext_write;
    t.death <- col t.death;
    t.index <- Flat_index.create ~capacity:(2 * !m) ();
    for s = 0 to !m - 1 do
      let p = Int_vec.get t.pair s in
      if p >= 0 then Flat_index.set t.index p s
    done;
    Hashtbl.filter_map_inplace (fun _ s -> Some remap.(s)) t.spill

  let words t =
    let cap v = Array.length (Int_vec.data v) in
    Flat_index.words t.index
    + (8 * Hashtbl.length t.spill)
    + cap t.pair + cap t.writer + cap t.readers + cap t.overwriters
    + cap t.ext_txn + cap t.ext_write + cap t.death + cap t.commit
    + cap t.older + Flat_index.words t.heads + cap t.cell_txn
    + cap t.cell_next

  (* The columns and the pool go out verbatim (chain order is in the
     cell indices and the links), then the heads, then the spill in slot
     order; decode rebuilds the index from the pair column. *)
  let encode buf t =
    Binio_core.add_uvarint buf t.num_keys;
    List.iter (Int_vec.encode buf)
      [ t.pair; t.writer; t.readers; t.overwriters; t.ext_txn; t.ext_write;
        t.death; t.commit; t.older; t.cell_txn; t.cell_next ];
    Flat_index.encode buf t.heads;
    let spill = Hashtbl.fold (fun kv s acc -> (s, kv) :: acc) t.spill [] in
    Binio_core.add_uvarint buf (List.length spill);
    List.iter
      (fun (s, (k, v)) ->
        Binio_core.add_varint buf k;
        Binio_core.add_varint buf v;
        Binio_core.add_uvarint buf s)
      (List.sort compare spill)

  let decode r =
    let num_keys = Binio_core.read_uvarint r in
    let col () = Int_vec.decode r in
    let pair = col () in
    let writer = col () in
    let readers = col () in
    let overwriters = col () in
    let ext_txn = col () in
    let ext_write = col () in
    let death = col () in
    let commit = col () in
    let older = col () in
    let cell_txn = col () in
    let cell_next = col () in
    let heads = Flat_index.decode r in
    let n = Int_vec.length pair and ncells = Int_vec.length cell_txn in
    if
      List.exists
        (fun v -> Int_vec.length v <> n)
        [ writer; readers; overwriters; ext_txn; ext_write; death; commit;
          older ]
      || Int_vec.length cell_next <> ncells
    then Binio_core.fail "version table: column lengths disagree";
    let index = Flat_index.create ~capacity:(2 * n) () in
    let spill_slots = ref 0 and chained = ref 0 in
    for s = 0 to n - 1 do
      let p = Int_vec.get pair s in
      if p < -1 || (p >= 0 && (num_keys = 0 || Flat_index.mem index p)) then
        Binio_core.fail "version table: slot %d has a bad pair %d" s p;
      if p >= 0 then Flat_index.set index p s else incr spill_slots;
      let w = Int_vec.get writer s in
      if w < -1 || (w >= 0 && w land 3 > Index.tier_aborted) then
        Binio_core.fail "version table: slot %d has a bad writer %d" s w;
      List.iter
        (fun v ->
          let c = Int_vec.get v s in
          if c < -1 || c >= ncells then
            Binio_core.fail "version table: slot %d names cell %d of %d" s c
              ncells)
        [ readers; overwriters ];
      let o = Int_vec.get older s in
      (* only a final write chains a slot, and only a final write
         replaces a final writer *)
      if o <> unchained && (w < 0 || w land 3 <> Index.tier_final) then
        Binio_core.fail "version table: chained slot %d has no final writer" s;
      if o <> unchained then incr chained;
      if Int_vec.get ext_txn s < -1 || Int_vec.get death s < -1
         || o < unchained || o >= n
      then Binio_core.fail "version table: slot %d out of range" s
    done;
    (* a chain links only to older cells, so it ends *)
    for c = 0 to ncells - 1 do
      let next = Int_vec.get cell_next c in
      if next < -1 || next >= c then
        Binio_core.fail "version table: cell %d links to cell %d" c next
    done;
    let m = Binio_core.read_uvarint r in
    if m <> !spill_slots then
      Binio_core.fail "version table: %d spill entries for %d spill slots" m
        !spill_slots;
    let spill = Hashtbl.create (Stdlib.max 8 m) in
    let named = Bytes.make n '\000' and spill_key = Array.make n 0 in
    for _ = 1 to m do
      let k = Binio_core.read_varint r in
      let v = Binio_core.read_varint r in
      let s = Binio_core.read_uvarint r in
      if
        s < 0 || s >= n
        || Int_vec.get pair s >= 0
        || Bytes.get named s <> '\000'
        || Flat_index.pack_pair ~num_keys k v >= 0
        || Hashtbl.mem spill (k, v)
      then Binio_core.fail "version table: bad spill entry for slot %d" s;
      Bytes.set named s '\001';
      spill_key.(s) <- k;
      Hashtbl.replace spill (k, v) s
    done;
    (* Each head's chain runs over chained slots of its key in commit
       order, and the chains take every chained slot once: a walk past
       that many slots has met a cycle. *)
    let key s =
      let p = Int_vec.get pair s in
      if p >= 0 then p mod num_keys else spill_key.(s)
    in
    Flat_index.iter heads (fun k s ->
        let s = ref s and c = ref max_int in
        while !s >= 0 do
          if !s >= n || !chained = 0 || Int_vec.get older !s = unchained
             || key !s <> k || Int_vec.get commit !s > !c
          then
            Binio_core.fail "version table: key %d's chain breaks at %d" k !s;
          decr chained;
          c := Int_vec.get commit !s;
          s := Int_vec.get older !s
        done);
    if !chained > 0 then
      Binio_core.fail "version table: %d chained slots on no chain" !chained;
    { num_keys; index; spill; pair; writer; readers; overwriters; ext_txn;
      ext_write; death; commit; older; heads; cell_txn; cell_next }
end

(* Watermark GC policy.  Both policies compact when the live-word
   estimate exceeds twice the post-GC floor or a minimum, whichever is
   larger: a fixed 64Ki words for [Gc_auto] (so tiny sessions never
   bother), [n] for [Gc_words n]. *)
type gc = Gc_off | Gc_auto | Gc_words of int

let gc_to_string = function
  | Gc_off -> "off"
  | Gc_auto -> "auto"
  | Gc_words n -> string_of_int n

let gc_of_string = function
  | "off" -> Some Gc_off
  | "auto" -> Some Gc_auto
  | s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> Some (Gc_words n)
      | _ -> None)

type settings = {
  level : Checker.level;
  num_keys : int;
  skew : int;
  ts : Ts.mode;
  gc : gc;
}

(* The largest key count whose packed dependency labels
   ({!Deps.pack_label}) stay under {!Pearce_kelly}'s 2^31 label limit. *)
let max_keys = (1 lsl 29) - 1

(* --- settings codec ------------------------------------------------- *)

(* The one byte format of a session's settings, shared by the WAL's
   open record, snapshots (through {!encode}) and the wire's
   [Open_session]: level byte, [num_keys] uvarint, skew zigzag varint,
   timestamp-mode byte, GC tag (+ uvarint word ceiling). *)
let add_level buf = function
  | Checker.SSER -> Buffer.add_char buf '\000'
  | Checker.SER -> Buffer.add_char buf '\001'
  | Checker.SI -> Buffer.add_char buf '\002'

let read_level r =
  match Binio_core.read_byte r with
  | 0 -> Checker.SSER
  | 1 -> Checker.SER
  | 2 -> Checker.SI
  | b -> Binio_core.fail "unknown level byte %d" b

let add_ts buf = function
  | Ts.Ignore -> Buffer.add_char buf '\000'
  | Ts.Trust -> Buffer.add_char buf '\001'
  | Ts.Verify -> Buffer.add_char buf '\002'

let read_ts r =
  match Binio_core.read_byte r with
  | 0 -> Ts.Ignore
  | 1 -> Ts.Trust
  | 2 -> Ts.Verify
  | b -> Binio_core.fail "unknown ts mode byte %d" b

let add_gc buf = function
  | Gc_off -> Buffer.add_char buf '\000'
  | Gc_auto -> Buffer.add_char buf '\001'
  | Gc_words n ->
      Buffer.add_char buf '\002';
      Binio_core.add_uvarint buf n

let read_gc r =
  match Binio_core.read_byte r with
  | 0 -> Gc_off
  | 1 -> Gc_auto
  | 2 ->
      let n = Binio_core.read_uvarint r in
      if n <= 0 then Binio_core.fail "gc word ceiling %d must be positive" n
      else Gc_words n
  | b -> Binio_core.fail "unknown gc policy byte %d" b

let add_settings buf s =
  add_level buf s.level;
  Binio_core.add_uvarint buf s.num_keys;
  Binio_core.add_varint buf s.skew;
  add_ts buf s.ts;
  add_gc buf s.gc

let read_settings r =
  let level = read_level r in
  let num_keys = Binio_core.read_uvarint r in
  if num_keys < 0 || num_keys > max_keys then
    Binio_core.fail "num_keys %d out of [0,%d]" num_keys max_keys;
  let skew = Binio_core.read_varint r in
  let ts = read_ts r in
  let gc = read_gc r in
  { level; num_keys; skew; ts; gc }

type t = {
  settings : settings;
  graph : Grow.t;
  mutable next_vertex : int;  (** one above every vertex id handed out *)
  vertex_txn : Int_vec.t;
      (** vertex -> txn id; -1 for helper vertices, [free_vertex] while
          on the free list *)
  txn_vertex : Flat_index.t;
      (** txn id -> base vertex (SI: the d-vertex), or [aborted_vertex];
          also the set of ids seen, which {!add_txn} refuses to reuse *)
  free : Int_vec.t;  (** freed vertex units by base vertex, reused last first *)
  aborted : Int_vec.t;  (** aborted ids fed since the last GC run *)
  versions : Versions.t;
  session_last : Flat_index.t;  (** session -> last committed txn id *)
  (* SSER stream state: commits in arrival (= commit_ts) order *)
  mutable commit_ts : Int_vec.t;
  mutable commit_helper : Int_vec.t;  (** helper vertex of the same commit *)
  mutable last_commit : int;
  mutable count : int;
  mutable poisoned : Checker.violation option;
  (* Watermark GC state (see {!gc}).  [total_vertices] is the logical
     allocation count — it keeps {!stats} identical between bounded and
     unbounded runs while [next_vertex] tracks the physical vertex
     space, whose freed ids are reused.  The install windows track, per
     key, the packed pairs of the two newest final installs; a version
     evicted from both slots gets the arrival position of its death in
     its slot's death column and becomes prunable once every session's
     feed frontier has passed that position.  Aborted installs follow a
     different clock: a leaked aborted version (the MongoDB-style fault)
     stays readable until a committed write on the same key shadows it,
     however long that takes, so aborted pairs wait in [ab_pending] and
     die only when the next final install on their key arrives. *)
  mutable gc_floor : int;  (** live words right after the last GC *)
  mutable gc_runs : int;
  mutable gc_reclaimed : int;  (** cumulative words reclaimed *)
  mutable gc_last_ns : int;  (** monotonic duration of the last GC run *)
  mutable total_vertices : int;
  fin_cur : int array;  (** per key: packed pair of newest final install *)
  fin_prev : int array;
  ab_pending : Int_vec.t array;
      (** per key: aborted installs not yet shadowed by a final one *)
  mutable ab_words : int;  (** summed capacity of the [ab_pending] vectors *)
  sessions : Flat_index.t;  (** session -> frontier slot *)
  sl_pos : Int_vec.t;  (** slot -> arrival position of the last fed txn *)
  sl_cts : Int_vec.t;  (** slot -> commit_ts frontier of the session *)
  (* Timestamp fast path (Vbox mode, {!Ts}) over the version table's
     chains: it changes read attribution, not table upkeep — the table
     also backs the duplicate-write and divergence screens.  [Verify]
     falls back per key to value resolution on a mismatch. *)
  ts_slow : Bytes.t;  (** verify: per-key certification-failed flag *)
  mutable ts_fast : int;
  mutable ts_mismatched : int;
}

type step = Ok_so_far | Violation of Checker.violation

type stats = {
  s_txns_seen : int;
  s_vertices : int;
  s_edges : int;
  s_poisoned : bool;
  s_ts_fast : int;
  s_ts_mismatched : int;
  s_gc_runs : int;
  s_gc_reclaimed_words : int;
  s_live_words : int;
}

let txns_seen t = t.count
let settings t = t.settings
let poisoned t = t.poisoned
let gc_runs t = t.gc_runs
let gc_last_ns t = t.gc_last_ns
let gc_reclaimed_words t = t.gc_reclaimed

(* The GC horizon as it stands right now: the minimum arrival position
   across per-session frontiers (what a compaction running at this
   instant would use for H).  -1 before any session has fed. *)
let watermark_pos t =
  let n = Int_vec.length t.sl_pos in
  if n = 0 then -1
  else begin
    let h = ref max_int in
    for i = 0 to n - 1 do
      if Int_vec.get t.sl_pos i < !h then h := Int_vec.get t.sl_pos i
    done;
    !h
  end

let ab_pending_words ab =
  Array.fold_left (fun acc v -> acc + Array.length (Int_vec.data v)) 0 ab

(* A vertex unit is what one allocation takes and one GC run frees:
   one vertex, or an SI transaction's adjacent (d, r) pair.  The
   initial transaction's unit is vertex 0 (and 1). *)
let vertices_per_txn level = match level with Checker.SI -> 2 | _ -> 1

let free_vertex = -2
let aborted_vertex = max_int

(* Rough live size in words of every structure the checker retains.
   O(1).  What GC frees in place — graph vertices and edges, id-table
   bindings — is counted live, not by the capacity it leaves behind, so
   a run lowers the estimate by what it frees and the [Gc_auto] floor
   follows the live size down.  The rest is rebuilt at GC and counted
   by capacity; [ab_pending] sums many vectors, so its capacity is a
   running total kept where they grow. *)
let live_words t =
  let live_vertices =
    t.next_vertex - (vertices_per_txn t.settings.level * Int_vec.length t.free)
  in
  ((Pearce_kelly.vertex_words + 1) * live_vertices)
  + Pearce_kelly.words t.graph.Grow.pk
  + Flat_index.words t.txn_vertex
  + Int_vec.length t.aborted
  + Versions.words t.versions
  + Flat_index.words t.session_last
  + Array.length (Int_vec.data t.commit_ts)
  + Array.length (Int_vec.data t.commit_helper)
  + (2 * Array.length t.fin_cur)
  + t.ab_words
  + Flat_index.words t.sessions
  + Array.length (Int_vec.data t.sl_pos)
  + Array.length (Int_vec.data t.sl_cts)

(* The vertex tables agree with each other and the graph: [vertex_txn]
   covers every id handed out; the free list names distinct, aligned,
   non-initial units whose vertices, and only those, are marked free and
   isolated; and [txn_vertex] maps each id to the base of a live unit
   holding that id, or to [aborted_vertex] (every id in [aborted]).  The
   first disagreement, if any.  O(vertices + ids): for decode and
   tests. *)
let vertex_tables_error t =
  let unit = vertices_per_txn t.settings.level in
  let n = t.next_vertex and pk = t.graph.Grow.pk in
  let err = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt
  in
  if Int_vec.length t.vertex_txn <> n then
    fail "vertex map length %d <> next vertex %d" (Int_vec.length t.vertex_txn) n
  else if n < unit || n mod unit <> 0 || n > Pearce_kelly.n pk then
    fail "next vertex %d outside the graph's %d" n (Pearce_kelly.n pk)
  else begin
    let listed = Bytes.make n '\000' in
    for i = 0 to Int_vec.length t.free - 1 do
      let b = Int_vec.get t.free i in
      if b < unit || b >= n || b mod unit <> 0 || Bytes.get listed b <> '\000'
      then fail "free-list entry %d out of range, repeated or initial" b
      else begin
        Bytes.set listed b '\001';
        for v = b to b + unit - 1 do
          if Int_vec.get t.vertex_txn v <> free_vertex then
            fail "free-list entry %d is live" b
        done
      end
    done;
    let marked = ref 0 in
    for v = 0 to n - 1 do
      let id = Int_vec.get t.vertex_txn v in
      if id = free_vertex then begin
        incr marked;
        Pearce_kelly.iter_succ pk v (fun _ -> fail "free vertex %d has edges" v)
      end
      else if id < -1 then fail "vertex %d maps to %d" v id
      else if id >= 0 && Flat_index.get t.txn_vertex id <> v - (v mod unit) then
        fail "vertex %d of T%d is not its transaction's" v id
    done;
    if !marked <> unit * Int_vec.length t.free then
      fail "%d vertices marked free, %d listed" !marked
        (unit * Int_vec.length t.free);
    Flat_index.iter t.txn_vertex (fun id b ->
        if b <> aborted_vertex && (b >= n || Int_vec.get t.vertex_txn b <> id)
        then fail "T%d maps to vertex %d" id b);
    for i = 0 to Int_vec.length t.aborted - 1 do
      let id = Int_vec.get t.aborted i in
      if Flat_index.get t.txn_vertex id <> aborted_vertex then
        fail "aborted T%d is not recorded" id
    done
  end;
  !err

(* For tests: the running totals behind {!live_words} equal a recount
   (the graph's through {!Pearce_kelly.check_invariant}), and the vertex
   tables agree. *)
let check_invariant t =
  Pearce_kelly.check_invariant t.graph.Grow.pk
  && t.ab_words = ab_pending_words t.ab_pending
  && vertex_tables_error t = None

let stats t =
  {
    s_txns_seen = t.count;
    s_vertices = t.total_vertices;
    s_edges = t.graph.Grow.edge_count;
    s_poisoned = t.poisoned <> None;
    s_ts_fast = t.ts_fast;
    s_ts_mismatched = t.ts_mismatched;
    s_gc_runs = t.gc_runs;
    s_gc_reclaimed_words = t.gc_reclaimed;
    s_live_words = live_words t;
  }

(* A unit from the free list, else from fresh ids.  Either way its
   vertices take new top positions: a new transaction's first edges come
   in from vertices allocated before it (its session predecessor, the
   writers it read), and a position above theirs keeps those edges on
   the insert path that needs no reorder. *)
let alloc_unit t =
  let unit = vertices_per_txn t.settings.level and pk = t.graph.Grow.pk in
  let base =
    if Int_vec.length t.free > 0 then Int_vec.pop t.free
    else begin
      let base = t.next_vertex in
      t.next_vertex <- base + unit;
      Pearce_kelly.ensure pk t.next_vertex;
      for _ = 1 to unit do
        Int_vec.push t.vertex_txn (-1)
      done;
      base
    end
  in
  for v = base to base + unit - 1 do
    Pearce_kelly.fresh pk v
  done;
  t.total_vertices <- t.total_vertices + unit;
  base

let alloc_vertices t (txn : Txn.t) =
  let base = alloc_unit t in
  Flat_index.set t.txn_vertex txn.Txn.id base;
  for v = base to base + vertices_per_txn t.settings.level - 1 do
    Int_vec.set t.vertex_txn v txn.Txn.id
  done;
  base

let alloc_helper t =
  let h = alloc_unit t in
  Int_vec.set t.vertex_txn h (-1);
  h

let of_settings ({ num_keys; ts; _ } as settings) =
  if num_keys < 0 || num_keys > max_keys then
    invalid_arg
      (Printf.sprintf "Online: num_keys %d out of [0,%d]" num_keys max_keys);
  let t =
    {
      settings;
      graph = Grow.create ();
      next_vertex = 0;
      vertex_txn = Int_vec.create 256;
      txn_vertex = Flat_index.create ~capacity:256 ();
      free = Int_vec.create 16;
      aborted = Int_vec.create 16;
      versions = Versions.create ~num_keys;
      session_last = Flat_index.create ~capacity:16 ();
      commit_ts = Int_vec.create 256;
      commit_helper = Int_vec.create 256;
      last_commit = min_int;
      count = 0;
      poisoned = None;
      ts_slow =
        (if ts = Ts.Verify then Bytes.make num_keys '\000' else Bytes.empty);
      ts_fast = 0;
      ts_mismatched = 0;
      gc_floor = 0;
      gc_runs = 0;
      gc_reclaimed = 0;
      gc_last_ns = 0;
      total_vertices = 0;
      fin_cur = Array.make num_keys (-1);
      fin_prev = Array.make num_keys (-1);
      ab_pending = Array.init num_keys (fun _ -> Int_vec.create 0);
      ab_words = 4 * num_keys (* [Int_vec.create 0] holds 4 slots *);
      sessions = Flat_index.create ~capacity:16 ();
      sl_pos = Int_vec.create 16;
      sl_cts = Int_vec.create 16;
    }
  in
  let init = History.init_txn ~num_keys in
  List.iter
    (fun (k, v) ->
      Versions.write t.versions k v ~tier:Index.tier_final init.Txn.id;
      (* The initial version of every key sits at the bottom of its
         chain (commit_ts = min_int), so prediction is total over
         in-range keys — exactly {!Ts.predict}'s invariant. *)
      if ts <> Ts.Ignore then
        Versions.push_chain t.versions k v ~commit:min_int;
      let p = Flat_index.pack_pair ~num_keys k v in
      if p >= 0 then t.fin_cur.(k) <- p)
    (Txn.final_writes init);
  ignore (alloc_vertices t init);
  t

let create ?(skew = 0) ?(ts = Ts.Ignore) ?(gc = Gc_off) ~level ~num_keys () =
  of_settings { level; num_keys; skew; ts; gc }

let resolve t k v = Versions.resolve t.versions k v

(* --- watermark GC: retention bookkeeping ---------------------------- *)

(* A committed version record is prunable only once (a) it has been
   evicted from its key's install window — the two newest final installs
   (depth two because the causality fault serves exactly one version
   back) — and (b) every session's feed frontier has passed the arrival
   position where that eviction happened.  (a) covers what a conforming
   MVCC engine (or a supported fault) can still serve at the moment of
   death; (b) covers in-flight transactions of lagging sessions: any
   reader that can still observe the evicted version has a snapshot
   older than the evicting commit, so (sessions being serial, streams
   arriving in commit order) its session's frontier stays below the
   death position until the reader itself is fed.  Aborted installs get
   no window: a leaked aborted version is served until a committed write
   shadows it, so the pair waits in [ab_pending] and dies only at the
   next final install on its key — the same frontier argument then
   covers its in-flight readers.  Unpackable pairs never die (they spill
   anyway).  Deaths go through the packed pair, so a death whose slot a
   compaction already dropped opens a fresh one. *)

let maybe_dead t k p =
  if p >= 0 && p <> t.fin_cur.(k) && p <> t.fin_prev.(k) then
    Versions.kill t.versions p t.count

let window_install t k v =
  let p = Flat_index.pack_pair ~num_keys:t.settings.num_keys k v in
  if p >= 0 then begin
    if t.fin_cur.(k) <> p then begin
      let evicted = t.fin_prev.(k) in
      t.fin_prev.(k) <- t.fin_cur.(k);
      t.fin_cur.(k) <- p;
      maybe_dead t k evicted
    end;
    let pending = t.ab_pending.(k) in
    for i = 0 to Int_vec.length pending - 1 do
      Versions.kill t.versions (Int_vec.get pending i) t.count
    done;
    Int_vec.clear pending
  end

let note_aborted t k v =
  let p = Flat_index.pack_pair ~num_keys:t.settings.num_keys k v in
  if p >= 0 then begin
    let pending = t.ab_pending.(k) in
    let cap = Array.length (Int_vec.data pending) in
    Int_vec.push pending p;
    t.ab_words <- t.ab_words + Array.length (Int_vec.data pending) - cap
  end

(* Intermediate writes are unreadable by conforming engines and by every
   supported fault, so they die at their own install position. *)
let mark_dead_now t k v =
  let p = Flat_index.pack_pair ~num_keys:t.settings.num_keys k v in
  if p >= 0 then Versions.kill t.versions p t.count

(* Advance the session's feed frontier — on every fed transaction,
   committed or aborted. *)
let note_session t session commit_ts =
  let slot = Flat_index.get t.sessions session in
  if slot >= 0 then begin
    Int_vec.set t.sl_pos slot t.count;
    if commit_ts > Int_vec.get t.sl_cts slot then
      Int_vec.set t.sl_cts slot commit_ts
  end
  else begin
    let slot = Int_vec.length t.sl_pos in
    Flat_index.set t.sessions session slot;
    Int_vec.push t.sl_pos t.count;
    Int_vec.push t.sl_cts commit_ts
  end

(* Timestamp-assisted attribution of an external read: the newest
   chained version of the key with [commit_ts <= start_ts] is the one an
   MVCC engine's visibility rule predicts the read observed, and its
   slot's writer is final.  [count] separates the certification
   statistics (tallied once, in the INT screen) from the edge-derivation
   re-resolution in [feed_committed], which sees the same reads a second
   time. *)
let resolve_ts t ~count ~start_ts k v =
  let vs = t.versions in
  match t.settings.ts with
  | Ts.Ignore -> resolve t k v
  | Ts.Trust ->
      let s = Versions.predict vs k ~start_ts in
      if s < 0 then resolve t k v
      else begin
        if count then t.ts_fast <- t.ts_fast + 1;
        Versions.writer vs s
      end
  | Ts.Verify ->
      if Bytes.unsafe_get t.ts_slow k = '\001' then resolve t k v
      else
        let s = Versions.predict vs k ~start_ts in
        if s >= 0 && s = Versions.find vs k v then begin
          if count then t.ts_fast <- t.ts_fast + 1;
          Versions.writer vs s
        end
        else begin
          (* Certification mismatch: the timestamps lie about this key.
             Fall back to value resolution for it, permanently. *)
          Bytes.unsafe_set t.ts_slow k '\001';
          if count then t.ts_mismatched <- t.ts_mismatched + 1;
          resolve t k v
        end

(* Product encoding for SI over base vertices: dep edges fan out of both
   the d- and r-vertex into the target's d-vertex; anti edges go
   d-to-r (see [Polygraph.cycle_edges] for the correctness argument). *)
let encoded_edges level (u, v, lab) =
  match (level, lab) with
  | Checker.SI, (Deps.SO | Deps.WR _ | Deps.WW _) ->
      [ (u, v, lab); (u + 1, v, lab) ]
  | Checker.SI, Deps.RW _ -> [ (u, v + 1, lab) ]
  | Checker.SI, (Deps.RT | Deps.Rt_chain) -> []
  | _, lab -> [ (u, v, lab) ]

(* Map a rejected edge u -> v (attempted with label [lab]) and its PK
   path [v; ...; u] back to a transaction-level cycle.  Helper vertices
   and intra-product steps are dropped; the rejected edge carries its own
   label (it was never recorded — rejected edges leave no label behind),
   the rest come from the label table. *)
let cycle_of_path t u lab path =
  let full = u :: path in
  let txn_of vtx =
    let id = Int_vec.get t.vertex_txn vtx in
    if id < 0 then None else Some id
  in
  let label_of a b = if a = u then lab else Grow.label t.graph a b in
  let rec build acc = function
    | a :: (b :: _ as rest) ->
        let edge =
          match (txn_of a, txn_of b) with
          | Some ta, Some tb when ta <> tb -> Some (ta, label_of a b, tb)
          | _ -> None
        in
        build (match edge with Some e -> e :: acc | None -> acc) rest
    | [ last ] ->
        (* close the cycle back to u *)
        let edge =
          match (txn_of last, txn_of u) with
          | Some ta, Some tb when ta <> tb ->
              Some (ta, Grow.label t.graph last u, tb)
          | _ -> None
        in
        List.rev (match edge with Some e -> e :: acc | None -> acc)
    | [] -> List.rev acc
  in
  (* Runs through helpers collapse; label gaps as RT when endpoints
     differ but no direct label exists — the label table falls back to
     Rt_chain, rendered as RT for reporting. *)
  List.map
    (fun (a, lab, b) ->
      (a, (match lab with Deps.Rt_chain -> Deps.RT | l -> l), b))
    (build [] full)

let poison t v =
  t.poisoned <- Some v;
  Violation v

exception Cycle_found of Checker.violation

let add_all_edges t base_u base_v lab =
  List.iter
    (fun (u, v, l) ->
      match Grow.add_edge t.graph u v l with
      | Ok () -> ()
      | Error path ->
          raise (Cycle_found (Checker.Cyclic (cycle_of_path t u l path))))
    (encoded_edges t.settings.level (base_u, base_v, lab))

let add_raw_edge t u v lab =
  match Grow.add_edge t.graph u v lab with
  | Ok () -> ()
  | Error path ->
      raise (Cycle_found (Checker.Cyclic (cycle_of_path t u lab path)))

let divergence_screen t (txn : Txn.t) =
  List.fold_left
    (fun acc (k, v) ->
      match acc with
      | Some _ -> acc
      | None ->
          if Txn.writes_key txn k then begin
            let vs = t.versions in
            let s = Versions.slot vs k v in
            let other = Versions.extender vs s in
            if other >= 0 then
              Some
                (Checker.Diverged
                   {
                     Divergence.key = k;
                     writer =
                       (match resolve t k v with
                       | Index.Final w -> w
                       | Index.Intermediate w | Index.Aborted w -> w
                       | Index.Nobody -> -1);
                     reader1 = (other, Versions.extender_write vs s);
                     reader2 =
                       ( txn.Txn.id,
                         Option.value (Txn.write_of txn k) ~default:0 );
                   })
            else begin
              Versions.set_extender vs s txn.Txn.id
                (Option.value (Txn.write_of txn k) ~default:0);
              None
            end
          end
          else None)
    None (Txn.external_reads txn)

let feed_committed t (txn : Txn.t) =
  let vtx = alloc_vertices t txn in
  (* Session order. *)
  let prev =
    let p = Flat_index.get t.session_last txn.Txn.session in
    if p >= 0 then p else History.init_id
  in
  add_all_edges t (Flat_index.get t.txn_vertex prev) vtx Deps.SO;
  Flat_index.set t.session_last txn.Txn.session txn.Txn.id;
  (* WR / WW / RW, all off the version read. *)
  let vs = t.versions in
  List.iter
    (fun (k, v) ->
      match resolve_ts t ~count:false ~start_ts:txn.Txn.start_ts k v with
      | Index.Final w when w <> txn.Txn.id ->
          let wv = Flat_index.get t.txn_vertex w in
          add_all_edges t wv vtx (Deps.WR k);
          (* a timestamp-attributed read may name a version with no
             recorded writer: it gets a slot all the same *)
          let s = Versions.slot vs k v in
          Versions.iter_overwriters vs s (fun o ->
              if o <> txn.Txn.id then
                add_all_edges t vtx (Flat_index.get t.txn_vertex o) (Deps.RW k));
          if Txn.writes_key txn k then begin
            add_all_edges t wv vtx (Deps.WW k);
            Versions.iter_readers vs s (fun r ->
                if r <> txn.Txn.id then
                  add_all_edges t
                    (Flat_index.get t.txn_vertex r)
                    vtx (Deps.RW k));
            Versions.push_overwriter vs s txn.Txn.id
          end;
          Versions.push_reader vs s txn.Txn.id
      | _ -> () (* excluded by the screen *))
    (Txn.external_reads txn);
  (* Record writes for future resolution. *)
  List.iter
    (fun (k, v) ->
      Versions.write vs k v ~tier:Index.tier_final txn.Txn.id;
      window_install t k v)
    (Txn.final_writes txn);
  List.iter
    (fun (k, v) ->
      Versions.write vs k v ~tier:Index.tier_intermediate txn.Txn.id;
      mark_dead_now t k v)
    (Txn.intermediate_writes txn);
  (* Timestamp modes: extend the per-key timestamp chains.  After the
     resolutions above, so a transaction never predicts its own
     in-flight writes. *)
  if t.settings.ts <> Ts.Ignore then begin
    List.iter
      (fun (k, v) -> Versions.push_chain vs k v ~commit:txn.Txn.commit_ts)
      (Txn.final_writes txn);
    if txn.Txn.commit_ts > t.last_commit then
      t.last_commit <- txn.Txn.commit_ts
  end;
  (* SSER: real-time edges through the helper chain.  Commits arrive in
     commit_ts order (enforced by add_txn), so the commit vectors are
     already sorted — binary search directly, no rebuild. *)
  if t.settings.level = Checker.SSER then begin
    let len = Int_vec.length t.commit_ts in
    let lo = ref 0 and hi = ref (len - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if Int_vec.get t.commit_ts mid + t.settings.skew < txn.Txn.start_ts
      then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !best >= 0 then
      add_raw_edge t (Int_vec.get t.commit_helper !best) vtx Deps.Rt_chain;
    let h = alloc_helper t in
    add_raw_edge t vtx h Deps.Rt_chain;
    if len > 0 then
      add_raw_edge t (Int_vec.get t.commit_helper (len - 1)) h Deps.Rt_chain;
    Int_vec.push t.commit_ts txn.Txn.commit_ts;
    Int_vec.push t.commit_helper h;
    t.last_commit <- txn.Txn.commit_ts
  end

(* --- watermark GC: compaction --------------------------------------- *)

let sp_gc = Obs.Trace.intern "online/gc"
let sp_gc_versions = Obs.Trace.intern "online/gc/versions"
let sp_gc_pin = Obs.Trace.intern "online/gc/pin"
let sp_gc_graph = Obs.Trace.intern "online/gc/graph"
let sp_gc_vertices = Obs.Trace.intern "online/gc/vertices"

(* One GC run: establish the feed frontiers, cut the timestamp chains
   in place below their boundaries, drop every version record whose
   death the whole fleet of sessions has passed and that no chain
   holds, truncate the SSER real-time index to the reachable suffix,
   pin every vertex a future edge can still name, and free every vertex
   unit below the smallest pinned position (the watermark) in place.
   Returns the estimated words reclaimed.  Safe only under the documented
   stream discipline: sessions are serial, streams arrive in commit
   order, and every session that will ever feed has fed at least once
   before the first GC (a session joining later must not read versions
   older than the current frontier). *)
let gc t =
  if t.poisoned <> None || Int_vec.length t.sl_pos = 0 then 0
  else begin
    let t0 = Obs.Trace.enter () in
    let ns0 = Obs.Clock.now_ns () in
    let before = live_words t in
    (* Feed frontiers: H = the arrival position every session has
       passed, S = the commit-ts every session has passed. *)
    let h = ref max_int and s = ref max_int in
    for i = 0 to Int_vec.length t.sl_pos - 1 do
      if Int_vec.get t.sl_pos i < !h then h := Int_vec.get t.sl_pos i;
      if Int_vec.get t.sl_cts i < !s then s := Int_vec.get t.sl_cts i
    done;
    let h = !h and s = !s in
    let t1 = Obs.Trace.enter () in
    (* 1. Timestamp chains: per key keep the nodes newer than S plus one
       boundary node (the newest with commit_ts <= S) — any future
       prediction lands there because session seriality puts every
       future start_ts above S. *)
    let vs = t.versions in
    Versions.cut vs s;
    (* 2. One compaction of the version table: drop every packed slot
       whose death every session has passed and that no chain holds, so
       prediction and value resolution stay consistent. *)
    Versions.compact vs (fun slot ->
        let d = Versions.death vs slot in
        not (d >= 0 && d < h));
    Obs.Trace.exit sp_gc_versions t1;
    let t1 = Obs.Trace.enter () in
    (* 3. SSER real-time index: a future search runs with start_ts > S,
       so it lands at or after the position S itself lands at — keep
       that suffix. *)
    if t.settings.level = Checker.SSER then begin
      let len = Int_vec.length t.commit_ts in
      let lo = ref 0 and hi = ref (len - 1) and best = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        if Int_vec.get t.commit_ts mid + t.settings.skew < s then begin
          best := mid;
          lo := mid + 1
        end
        else hi := mid - 1
      done;
      let ncts = Int_vec.create 256 and nch = Int_vec.create 256 in
      for i = Stdlib.max 0 !best to len - 1 do
        Int_vec.push ncts (Int_vec.get t.commit_ts i);
        Int_vec.push nch (Int_vec.get t.commit_helper i)
      done;
      t.commit_ts <- ncts;
      t.commit_helper <- nch
    end;
    (* 4. Pin every vertex a future edge can name — session-order
       predecessors, resolvable writers (among them every timestamp
       chain's), reader/overwriter chain members, surviving real-time
       helpers.
       The watermark W is the smallest position among them.  Every
       future edge names a pinned vertex or a new one (at the top), and
       every search it starts stays at or above the position of one of
       its endpoints, so nothing below W is traversed again. *)
    let pk = t.graph.Grow.pk in
    let w = ref max_int in
    let consider v =
      let o = Pearce_kelly.order_index pk v in
      if o < !w then w := o
    in
    let si = t.settings.level = Checker.SI in
    let pin_txn id =
      if id <> History.init_id then begin
        let base = Flat_index.get t.txn_vertex id in
        if base >= 0 && base <> aborted_vertex then begin
          consider base;
          if si then consider (base + 1)
        end
      end
    in
    Versions.iter_txns vs pin_txn;
    Flat_index.iter t.session_last (fun _ id -> pin_txn id);
    for i = 0 to Int_vec.length t.commit_helper - 1 do
      consider (Int_vec.get t.commit_helper i)
    done;
    let w = !w in
    Obs.Trace.exit sp_gc_pin t1;
    let t1 = Obs.Trace.enter () in
    (* 5. Every unit wholly below the watermark goes on the free list,
       its vertex-table entries cleared — except the initial
       transaction's, which has no in-edges and stays below everything.
       Survivors keep their ids, so nothing is remapped.  Aborted ids
       fed since the last run leave the id table too: they have no
       vertex to free them. *)
    let unit = vertices_per_txn t.settings.level in
    let freed = Int_vec.create 64 in
    let b = ref unit in
    while !b < t.next_vertex do
      let base = !b in
      let id = Int_vec.get t.vertex_txn base in
      if
        id <> free_vertex
        && Pearce_kelly.order_index pk base < w
        && (unit = 1 || Pearce_kelly.order_index pk (base + 1) < w)
      then begin
        if id >= 0 then Flat_index.remove t.txn_vertex id;
        for v = base to base + unit - 1 do
          Int_vec.set t.vertex_txn v free_vertex;
          Int_vec.push freed v
        done;
        Int_vec.push t.free base
      end;
      b := base + unit
    done;
    for i = 0 to Int_vec.length t.aborted - 1 do
      Flat_index.remove t.txn_vertex (Int_vec.get t.aborted i)
    done;
    Int_vec.clear t.aborted;
    Obs.Trace.exit sp_gc_vertices t1;
    let t1 = Obs.Trace.enter () in
    (* 6. Free them in the graph, by their edges. *)
    Pearce_kelly.free pk
      (Array.sub (Int_vec.data freed) 0 (Int_vec.length freed));
    Obs.Trace.exit sp_gc_graph t1;
    let after = live_words t in
    t.gc_floor <- after;
    t.gc_runs <- t.gc_runs + 1;
    let reclaimed = Stdlib.max 0 (before - after) in
    t.gc_reclaimed <- t.gc_reclaimed + reclaimed;
    t.gc_last_ns <- Obs.Clock.now_ns () - ns0;
    Obs.Trace.exit sp_gc t0;
    reclaimed
  end

(* Auto trigger: every 64 feeds, compact if the live-word estimate is
   past both twice the post-GC floor and the policy minimum — the
   doubling keeps a floor near the minimum from compacting at every
   check.  The estimate is O(1); the 64-feed cadence is kept because it
   fixes when compactions happen (the GC schedule). *)
let maybe_auto_gc t =
  let minimum =
    match t.settings.gc with Gc_off -> -1 | Gc_auto -> 65536 | Gc_words n -> n
  in
  if
    minimum >= 0 && t.poisoned = None && t.count land 63 = 0
    && live_words t > Stdlib.max (2 * t.gc_floor) minimum
  then ignore (gc t)

let add_txn_inner t (txn : Txn.t) =
  match t.poisoned with
  | Some v -> Violation v
  | None -> (
      if Flat_index.mem t.txn_vertex txn.Txn.id || txn.Txn.id <= 0 then
        invalid_arg
          (Printf.sprintf "Online.add_txn: transaction id %d invalid or reused"
             txn.Txn.id);
      for i = 0 to Array.length txn.Txn.ops - 1 do
        let k = Op.key txn.Txn.ops.(i) in
        if k < 0 || k >= t.settings.num_keys then
          invalid_arg
            (Printf.sprintf "Online.add_txn: T%d accesses key %d out of [0,%d)"
               txn.Txn.id k t.settings.num_keys)
      done;
      if
        (t.settings.level = Checker.SSER || t.settings.ts <> Ts.Ignore)
        && txn.Txn.status = Txn.Committed
        && txn.Txn.commit_ts < t.last_commit
      then
        invalid_arg
          (if t.settings.level = Checker.SSER then
             "Online.add_txn: SSER streams must arrive in commit order"
           else
             "Online.add_txn: timestamp modes need commit-order streams");
      t.count <- t.count + 1;
      note_session t txn.Txn.session txn.Txn.commit_ts;
      match txn.Txn.status with
      | Txn.Aborted ->
          Flat_index.set t.txn_vertex txn.Txn.id aborted_vertex;
          Int_vec.push t.aborted txn.Txn.id;
          Array.iter
            (fun op ->
              match op with
              | Op.Write (k, v) ->
                  Versions.write t.versions k v ~tier:Index.tier_aborted
                    txn.Txn.id;
                  note_aborted t k v
              | Op.Read _ -> ())
            txn.Txn.ops;
          Ok_so_far
      | Txn.Committed -> (
          let dup =
            List.find_opt
              (fun (k, v) -> resolve t k v <> Index.Nobody)
              (Txn.final_writes txn @ Txn.intermediate_writes txn)
          in
          match dup with
          | Some (k, v) ->
              poison t
                (Checker.Malformed
                   (Printf.sprintf "duplicate write of %d to x%d by T%d" v k
                      txn.Txn.id))
          | None -> (
              match
                Int_check.check_txn_with
                  ~resolve:(fun _ k v ->
                    resolve_ts t ~count:true ~start_ts:txn.Txn.start_ts k v)
                  txn
              with
              | viol :: _ -> poison t (Checker.Intra viol)
              | [] -> (
                  match
                    if t.settings.level = Checker.SI then
                      divergence_screen t txn
                    else None
                  with
                  | Some v -> poison t v
                  | None -> (
                      try
                        feed_committed t txn;
                        Ok_so_far
                      with Cycle_found v -> poison t v)))))

let sp_feed = Obs.Trace.intern "online/feed"

(* Not [with_span]: the closure it would allocate is the only thing
   between this wrapper and a zero-allocation disabled path. *)
let add_txn t (txn : Txn.t) =
  let t0 = Obs.Trace.enter () in
  let r = add_txn_inner t txn in
  maybe_auto_gc t;
  Obs.Trace.exit sp_feed t0;
  r

(* --- snapshot codec ------------------------------------------------ *)

(* Serializes the whole checker state directly — the flat int structures
   go to varints, no history replay.  Structures whose iteration order
   the cycle-witness DFS observes (PK adjacency + order, the version
   table's columns, chain pool and timestamp links) are written
   verbatim; hash layouts are not (unobservable).  A restored
   checker therefore renders byte-identical counterexamples and verdicts
   for any continuation of the stream.  Poisoned checkers are not
   snapshotted — the persistence layer stores their rendered verdict
   instead, which is all a poisoned session can ever produce again.  The
   settings lead, in {!add_settings}' format. *)

let encode buf t =
  if t.poisoned <> None then
    invalid_arg "Online.encode: poisoned checkers are not snapshotted";
  add_settings buf t.settings;
  Binio_core.add_uvarint buf t.graph.Grow.edge_count;
  Pearce_kelly.encode buf t.graph.Grow.pk;
  Binio_core.add_uvarint buf t.next_vertex;
  Int_vec.encode buf t.vertex_txn;
  Flat_index.encode buf t.txn_vertex;
  Int_vec.encode buf t.free;
  Int_vec.encode buf t.aborted;
  Versions.encode buf t.versions;
  Flat_index.encode buf t.session_last;
  Int_vec.encode buf t.commit_ts;
  Int_vec.encode buf t.commit_helper;
  Binio_core.add_varint buf t.last_commit;
  Binio_core.add_uvarint buf t.count;
  Binio_core.add_string buf (Bytes.unsafe_to_string t.ts_slow);
  Binio_core.add_uvarint buf t.ts_fast;
  Binio_core.add_uvarint buf t.ts_mismatched;
  (* watermark-GC state: a restored checker re-establishes the install
     windows and the frontiers, so compaction resumes where it left
     off *)
  Binio_core.add_uvarint buf t.gc_floor;
  Binio_core.add_uvarint buf t.gc_runs;
  Binio_core.add_uvarint buf t.gc_reclaimed;
  Binio_core.add_uvarint buf t.total_vertices;
  Array.iter (Binio_core.add_varint buf) t.fin_cur;
  Array.iter (Binio_core.add_varint buf) t.fin_prev;
  Array.iter (Int_vec.encode buf) t.ab_pending;
  Flat_index.encode buf t.sessions;
  Int_vec.encode buf t.sl_pos;
  Int_vec.encode buf t.sl_cts

let decode r =
  let settings = read_settings r in
  let num_keys = settings.num_keys in
  let edge_count = Binio_core.read_uvarint r in
  let pk = Pearce_kelly.decode r in
  let graph = { Grow.pk; edge_count } in
  let next_vertex = Binio_core.read_uvarint r in
  let vertex_txn = Int_vec.decode r in
  let txn_vertex = Flat_index.decode r in
  let free = Int_vec.decode r in
  let aborted = Int_vec.decode r in
  let versions = Versions.decode r in
  let session_last = Flat_index.decode r in
  let commit_ts = Int_vec.decode r in
  let commit_helper = Int_vec.decode r in
  let last_commit = Binio_core.read_varint r in
  let count = Binio_core.read_uvarint r in
  let ts_slow = Bytes.of_string (Binio_core.read_string r) in
  let ts_fast = Binio_core.read_uvarint r in
  let ts_mismatched = Binio_core.read_uvarint r in
  let gc_floor = Binio_core.read_uvarint r in
  let gc_runs = Binio_core.read_uvarint r in
  let gc_reclaimed = Binio_core.read_uvarint r in
  let total_vertices = Binio_core.read_uvarint r in
  if num_keys > Binio_core.remaining r then
    Binio_core.fail "online snapshot: num_keys %d overruns input" num_keys;
  if Bytes.length ts_slow <> (if settings.ts = Ts.Verify then num_keys else 0)
  then
    Binio_core.fail "online snapshot: %d certification flags for %d keys"
      (Bytes.length ts_slow) num_keys;
  if Versions.num_keys versions <> num_keys then
    Binio_core.fail "online snapshot: version table keyed for %d keys, not %d"
      (Versions.num_keys versions) num_keys;
  let read_window () = Array.init num_keys (fun _ -> Binio_core.read_varint r) in
  let fin_cur = read_window () in
  let fin_prev = read_window () in
  let ab_pending = Array.init num_keys (fun _ -> Int_vec.decode r) in
  let sessions = Flat_index.decode r in
  let sl_pos = Int_vec.decode r in
  let sl_cts = Int_vec.decode r in
  if total_vertices < next_vertex then
    Binio_core.fail "online snapshot: total vertices %d below live %d"
      total_vertices next_vertex;
  if
    Int_vec.length sl_pos <> Int_vec.length sl_cts
    || Flat_index.length sessions <> Int_vec.length sl_pos
  then Binio_core.fail "online snapshot: session frontier tables disagree";
  let t =
    {
      settings;
      graph;
      next_vertex;
      vertex_txn;
      txn_vertex;
      free;
      aborted;
      versions;
      session_last;
      commit_ts;
      commit_helper;
      last_commit;
      count;
      poisoned = None;
      ts_slow;
      ts_fast;
      ts_mismatched;
      gc_floor;
      gc_runs;
      gc_reclaimed;
      gc_last_ns = 0;
      total_vertices;
      fin_cur;
      fin_prev;
      ab_pending;
      ab_words = ab_pending_words ab_pending;
      sessions;
      sl_pos;
      sl_cts;
    }
  in
  (match vertex_tables_error t with
  | Some e -> Binio_core.fail "online snapshot: %s" e
  | None -> ());
  t

let check_stream ?skew ?ts ?gc ~level ~num_keys txns =
  let t = create ?skew ?ts ?gc ~level ~num_keys () in
  let rec go n = function
    | [] -> Ok n
    | txn :: rest -> (
        match add_txn t txn with
        | Ok_so_far -> go (n + 1) rest
        | Violation v -> Error v)
  in
  go 0 txns
