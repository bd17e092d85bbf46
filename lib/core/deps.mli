(** The (nearly unique) dependency graph of a mini-transaction history —
    the optimized BUILDDEPENDENCY of paper Algorithm 1 / Section IV-C.

    Unique values make WR fully determined; the RMW pattern makes each WW
    edge the direct successor relation along an object's version chain
    (inferred from WR, lines 10–11); the transitive closure of WW is *not*
    computed (Theorems 1–2 show acyclicity is preserved); RW is composed
    from WR and WW (lines 14–15).

    {!build} streams edges into flat int arrays — sources, targets, and
    int-packed labels — and counting-sorts them straight into the frozen
    {!Csr.t} the cycle kernels consume: no adjacency lists, no boxed
    [(key, value)] tuples, no hash tables.  One serial bucket pass copies
    every external read into flat records of its key stripe (committed
    position, op index, key, value, and whether the reader also writes
    the key); the stripe tasks resolve writers and infer WR/WW/RW from
    those records alone.  Reader groups — the readers of one writer's
    version of one key — are numbered through a dense array indexed by
    the resolving slot ({!Index.slot_of} or the timestamp chain slot),
    in first-appearance order within the stripe.

    For SSER, the real-time relation can be materialized in two ways:
    - [Rt_naive]: one edge per ordered pair, Θ(n²) as analyzed in the
      paper (Section IV-D);
    - [Rt_sweep]: an O(n log n) encoding through a chain of helper
      vertices sorted by commit time — [T -RT-> S] iff the graph has a
      path [T -> h_i -> ... -> h_j -> S] of [Rt_chain] edges.  Cycles are
      mapped back to RT edges by {!to_txn_cycle}. *)

type dep =
  | RT
  | SO
  | WR of Op.key
  | WW of Op.key
  | RW of Op.key
  | Rt_chain  (** internal helper-chain edges of the sweep encoding *)

val pp_dep : Format.formatter -> dep -> unit

val pack_label : dep -> int
(** The int edge streams and graph successor entries carry: 0, 1, 2 for
    [RT], [SO], [Rt_chain]; [4 + (k lsl 2) lor] 0, 1, 2 for [WR]/[WW]/[RW k]. *)

val unpack_label : int -> dep
(** Inverse of {!pack_label} on keys [>= 0]. *)

type rt_mode = No_rt | Rt_naive | Rt_sweep

type t = {
  idx : Index.t;
  num_txn_vertices : int;  (** vertices [>= num_txn_vertices] are helpers *)
  frozen : dep Csr.t;
}

val freeze : t -> dep Csr.t
(** The CSR form the cycle kernels run on, built once by {!build}. *)

type error = Unresolved_read of { txn : Txn.id; key : Op.key; value : Op.value }

val pp_error : Format.formatter -> error -> unit

val build :
  ?skew:int -> ?pool:Pool.t -> ?ts:Ts.t -> rt:rt_mode -> Index.t ->
  (t, error) result
(** Fails only if some external read cannot be attributed to the final
    write of a committed transaction — which the INT screen
    ({!Int_check.check}) rules out beforehand.

    [ts] enables the timestamp fast path: reads of fast keys take their
    writer from the predicted chain slot — no write-table lookup — and
    their reader groups are numbered by chain slot, which reproduces the
    value-inferred grouping exactly (certification or an explicit trust
    decision guarantees the slot's writer is the value's writer), so the
    frozen CSR is bit-identical with the value-only build.  Keys flagged
    slow by certification fall back to value resolution per key; the
    write table of a deferred index is then built once, serially,
    before the stripe tasks start.

    [pool] parallelizes the build: inference is sharded over a {e fixed}
    number of key stripes (independent of the pool size), so the frozen
    CSR — edge order included — and any [Unresolved_read] error are
    bit-identical whether the stripes run on one domain or many.

    [skew] (default 0) relaxes the real-time order for SSER: an RT edge
    [T -> S] is added only when [T.commit_ts + skew < S.start_ts].  This
    is the paper's future-work concern about collecting wall-clock
    timestamps under clock skew — tolerating a bounded skew trades a few
    missed RT edges (weaker check, no false positives) for robustness
    against drifting client clocks. *)

val to_txn_cycle :
  t -> (int * dep * int) list -> (Txn.id * dep * Txn.id) list
(** Convert a vertex-level cycle into a transaction-level one, contracting
    maximal runs of [Rt_chain] helper edges into single [RT] edges. *)
