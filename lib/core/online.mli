(** Online (incremental) isolation checking — the "checking-as-a-service"
    mode of the authors' IsoVista system (paper Section VII): transactions
    stream in as they commit, the dependency graph is maintained
    incrementally (Pearce–Kelly topological order), and the first
    violating transaction is flagged the moment it arrives.

    Because MT histories have (nearly) unique dependency graphs, feeding a
    committed transaction means adding a constant number of edges:
    - WR from the writer of each value read;
    - WW from that writer when the reader overwrites (the RMW inference);
    - RW from the version's earlier readers to the new overwriter, and
      from the new reader to the version's existing overwriters.

    All three are read off one version record per [(key, value)] pair
    ({!Versions}): its writer, reader and overwriter chains, SI extender,
    death position and link on its key's timestamp chain.

    For SI the edges go into the two-vertex product encoding (cycles =
    SI-forbidden cycles, see {!Polysi}), and the DIVERGENCE screen runs on
    the fly.  For SSER, transactions must be fed in commit order (the
    natural stream order) and real-time edges attach through the same
    helper-chain sweep as the batch checker.

    Aborted transactions should be fed too ({!add_txn} records their
    writes so ABORTEDREAD is diagnosed precisely).

    Timestamp modes ({!Ts.mode}, the online Vbox fast path): [Trust]
    attributes every external read to the newest write with
    [commit_ts <= start_ts] on its key's timestamp chain; [Verify]
    certifies that the predicted version is the one read and falls back
    per key to value resolution on a mismatch, so verdicts match the
    default value-only pipeline while the mismatch counters expose lying
    timestamp oracles ({!stats}).  Both modes require committed
    transactions to arrive in commit-timestamp order (the natural stream
    order), which keeps the chains sorted by construction. *)

(** The labelled Pearce–Kelly graph backing the checker: each edge's
    label rides in its successor entry.  Exposed for white-box tests of
    its edge accounting: duplicate edges are accepted without bumping
    the count, and a rejected (cycle-closing) edge leaves no label
    behind. *)
module Grow : sig
  type t

  val create : unit -> t
  (** A graph with room for 64 vertices. *)

  val add_edge : t -> int -> int -> Deps.dep -> (unit, int list) result
  (** [add_edge t u v lab] inserts [u -> v] labelled [lab].  A duplicate
      insertion is [Ok ()] and changes neither the count nor the existing
      label; [Error path] (cycle) records nothing. *)

  val label : t -> int -> int -> Deps.dep
  (** Label of a recorded edge; [Deps.Rt_chain] if the edge was never
      accepted. *)

  val edge_count : t -> int
  (** Distinct edges accepted so far; freeing edges does not lower it. *)
end

(** The version table behind every value-derived edge and timestamp
    prediction: one slot per [(key, value)] pair — with unique values,
    one per version — holding its writer, the heads of its reader and
    overwriter chains, its SI extender, the arrival position of its death
    and its timestamp-chain link.  Packed pairs ({!Flat_index.pack_pair})
    are found through one int index; the rest go through a tuple-keyed
    spill and are never compacted away.  Exposed for white-box tests. *)
module Versions : sig
  type t

  val create : num_keys:int -> t

  val find : t -> Op.key -> Op.value -> int
  (** The pair's slot, or [-1] if it has none. *)

  val slot : t -> Op.key -> Op.value -> int
  (** The pair's slot, added if it has none. *)

  val write : t -> Op.key -> Op.value -> tier:int -> Txn.id -> unit
  (** Record a writer of the pair at an {!Index} tier.  It replaces the
      recorded writer unless that one's tier is stronger. *)

  val resolve : t -> Op.key -> Op.value -> Index.writer
  (** Who produced the pair: its final writer, else its intermediate
      one, else its aborted one, and within a tier the last recorded —
      what three last-set-wins tables consulted in that order answer. *)

  val push_chain : t -> Op.key -> Op.value -> commit:int -> unit
  (** Chain the pair's slot (added if none) on its key, committed at
      [commit] (not below the last push), after {!write} has recorded
      its final writer.  @raise Invalid_argument if the slot is already
      chained. *)

  val predict : t -> Op.key -> start_ts:int -> int
  (** The newest chained slot of the key with [commit <= start_ts], or
      [-1]. *)

  val cut : t -> int -> unit
  (** [cut t s] ends every chain, in place, at its boundary: its newest
      node with [commit <= s].  A chain without one stays whole. *)

  val push_reader : t -> int -> Txn.id -> unit
  val push_overwriter : t -> int -> Txn.id -> unit

  val iter_readers : t -> int -> (Txn.id -> unit) -> unit
  (** A slot's readers, newest push first. *)

  val iter_overwriters : t -> int -> (Txn.id -> unit) -> unit
  (** A slot's overwriters, newest push first. *)

  val extender : t -> int -> Txn.id
  (** The slot's SI extender, or [-1]. *)

  val extender_write : t -> int -> Op.value
  (** The extender's own write of the key; meaningful when
      {!extender} is set. *)

  val set_extender : t -> int -> Txn.id -> Op.value -> unit

  val death : t -> int -> int
  (** Arrival position of the slot's death, or [-1] while alive. *)

  val kill : t -> int -> int -> unit
  (** [kill t p pos] records death position [pos] for the packed pair
      [p], adding its slot if it has none. *)

  val compact : t -> (int -> bool) -> unit
  (** [compact t keep] drops every packed slot [keep] rejects; spill and
      chained slots always stay.  Survivors keep their relative order but
      are renumbered, and every chain keeps its newest-first order. *)

  val encode : Buffer.t -> t -> unit
  (** The columns, the chain pool and the heads verbatim, then the spill. *)

  val decode : Binio_core.reader -> t
  (** Inverse of {!encode}.  @raise Binio_core.Decode_error on unequal
      column lengths, a slot, cell or spill reference out of range, a
      chained slot without a final writer, or chains that are not one
      commit-ordered list per key over its slots. *)
end

type t

(** Watermark GC policy for long-lived sessions.  [Gc_off] (the
    default) retains everything, exactly the historical behavior.  The
    other two compact, checked every 64 feeds, whenever the live-word
    estimate exceeds both twice the post-GC floor and a minimum: a fixed
    64Ki words for [Gc_auto], [n] words for [Gc_words n].  The doubling
    keeps a floor that sits near [n] from compacting at every check.

    Soundness rests on the stream discipline the service already
    enforces plus one operational precondition: sessions are serial,
    streams arrive in commit order, transactions are short (mini-
    transactions — a transaction must not start before versions its
    session's frontier has long passed), and {b every session that will
    ever feed this checker has fed at least once before the first
    compaction}.  Under that discipline verdicts, rendered
    counterexamples and {!stats} counters are identical to an unbounded
    run.  A compaction cuts the timestamp chains in place below the
    sessions' commit frontier, drops the version records ({!Versions}
    slots) whose death every session's feed frontier has passed and that
    no chain holds, truncates the SSER real-time index, and frees in
    place every graph vertex below the oldest position a future edge can
    still reach: by its edges, its id going on a free list that later
    transactions reuse.  Survivors keep their ids, so nothing is
    renumbered, and a run costs the pin scan, the version table and what
    it frees — not a rebuild of what it keeps.  Known
    sharp edges, all below the watermark only: duplicate writes of a
    pruned value and reuse of a pruned transaction id are no longer
    detected, and under [Ts.Verify] a {e lying} oracle whose
    reported start timestamp falls below the compacted horizon counts a
    certification mismatch where an unbounded run may have predicted
    fast — the read falls back to value resolution either way, so
    verdicts and dependency edges are unaffected; only the
    [s_ts_fast]/[s_ts_mismatched] diagnostics can over-report. *)
type gc = Gc_off | Gc_auto | Gc_words of int

val gc_to_string : gc -> string
(** ["off"], ["auto"] or the decimal word count — the CLI spelling. *)

val gc_of_string : string -> gc option
(** Inverse of {!gc_to_string}; [None] on anything else. *)

(** What defines a checking session, fixed when it opens: the one record
    the service's [Open_session], its WAL open record and its snapshots
    carry. *)
type settings = {
  level : Checker.level;
  num_keys : int;  (** keys are [0 .. num_keys - 1] *)
  skew : int;  (** SSER real-time slack *)
  ts : Ts.mode;  (** timestamp fast path *)
  gc : gc;
}

val max_keys : int
(** [2^29 - 1]: the largest [num_keys] whose packed dependency labels
    fit {!Pearce_kelly}'s label range. *)

(** {2 Settings codec}

    The one byte format of {!settings}: a level byte (0 SSER, 1 SER,
    2 SI), [num_keys] as a uvarint, [skew] as a zigzag varint, a
    timestamp-mode byte (0 ignore, 1 trust, 2 verify) and a GC tag (0
    off, 1 auto, 2 words followed by the uvarint ceiling).  The field
    codecs serve formats that carry a field on its own (the wire's
    optional GC field, its per-session telemetry).  Readers raise
    [Binio_core.Decode_error] on an unknown byte, a ceiling [<= 0] or a
    [num_keys] outside [\[0, max_keys\]]. *)

val add_settings : Buffer.t -> settings -> unit
val read_settings : Binio_core.reader -> settings
val add_level : Buffer.t -> Checker.level -> unit
val read_level : Binio_core.reader -> Checker.level
val add_ts : Buffer.t -> Ts.mode -> unit
val read_ts : Binio_core.reader -> Ts.mode
val add_gc : Buffer.t -> gc -> unit
val read_gc : Binio_core.reader -> gc

val create :
  ?skew:int -> ?ts:Ts.mode -> ?gc:gc -> level:Checker.level -> num_keys:int ->
  unit -> t
(** A fresh stream checker; the initial transaction is implicit.  [ts]
    (default [Ts.Ignore]) selects the timestamp fast path — see the
    module header for the [Trust]/[Verify] semantics and the
    commit-order arrival requirement they impose.  [gc] (default
    [Gc_off]) bounds memory via watermark compaction.
    @raise Invalid_argument if [num_keys] is outside [\[0, max_keys\]]. *)

val of_settings : settings -> t
(** {!create} from the record whole. *)

type step =
  | Ok_so_far
  | Violation of Checker.violation
      (** the stream violates the level; the checker is poisoned — further
          {!add_txn} calls keep returning this violation *)

val add_txn : t -> Txn.t -> step
(** Feed the next transaction (committed or aborted).  Transaction ids
    must be fresh and positive, and every key in [\[0, num_keys)]; for
    SSER — and for any timestamp mode — commit timestamps must be
    non-decreasing across calls.
    @raise Invalid_argument on id reuse, a key out of range or
    out-of-order commits, before changing any state. *)

val txns_seen : t -> int

val settings : t -> settings
(** The settings the checker was created with (or decoded from). *)

val poisoned : t -> Checker.violation option
(** The violation this checker is stuck on, if any. *)

val gc : t -> int
(** Run one watermark compaction now (regardless of policy — tests use
    this for GC-after-every-txn torture).  Returns the estimated words
    reclaimed (the fall in {!live_words}); a no-op (0) on a poisoned
    checker or before any session has fed. *)

val gc_runs : t -> int
(** Compactions performed so far (manual + automatic). *)

val gc_last_ns : t -> int
(** Duration of the most recent compaction in nanoseconds, on the
    monotonic {!Obs.Clock}; 0 if none. *)

val gc_reclaimed_words : t -> int
(** Cumulative estimated words reclaimed across all compactions (the
    O(1) counterpart of {!stats}' [s_gc_reclaimed_words]). *)

val live_words : t -> int
(** Estimated words of memory retained by the checker's live
    structures.  O(1).  What GC frees in place — graph vertices and
    edges, id-table bindings — counts by what is live, so a compaction
    lowers the estimate by what it frees and the post-GC floor
    follows; what GC compacts (the version table, the SSER index)
    counts by capacity.  The {!gc} trigger compares it with twice the
    floor and the policy minimum every 64 feeds. *)

val check_invariant : t -> bool
(** For tests: the running capacity total behind {!live_words} equals a
    recount, the graph satisfies {!Pearce_kelly.check_invariant}, and
    the vertex tables and free list agree with each other and the
    graph. *)

val watermark_pos : t -> int
(** The GC horizon as it stands right now: the minimum arrival
    position across the per-session frontiers (the [H] a compaction
    run at this instant would use), or [-1] before any session has
    fed.  [txns_seen t - watermark_pos t] is the watermark lag — how
    many arrivals the slowest internal stream session trails the
    head, i.e. how much of the stream a stalled session is pinning
    against GC.  O(stream sessions). *)

type stats = {
  s_txns_seen : int;  (** transactions fed (committed + aborted) *)
  s_vertices : int;  (** graph vertices allocated (incl. SI/SSER helpers) *)
  s_edges : int;  (** edges accepted into the Pearce–Kelly structure *)
  s_poisoned : bool;
  s_ts_fast : int;
      (** external reads attributed by timestamp prediction (0 in
          [Ts.Ignore] mode) *)
  s_ts_mismatched : int;
      (** [Ts.Verify] certification mismatches — evidence of a lying
          timestamp oracle; each flips its key to value resolution *)
  s_gc_runs : int;  (** watermark compactions performed *)
  s_gc_reclaimed_words : int;  (** cumulative words reclaimed by GC *)
  s_live_words : int;  (** current {!live_words} estimate *)
}

val stats : t -> stats
(** A consistent snapshot of the checker's internal counters — exposed
    for the service layer's [stats] frames and for tests asserting that
    a poisoned checker stops mutating its graph. *)

val encode : Buffer.t -> t -> unit
(** Serialize the full checker state (no history replay on restore).
    Structures whose iteration order the cycle-witness DFS observes are
    written verbatim, so a {!decode}d checker renders byte-identical
    counterexamples and verdicts for any continuation of the stream.
    The {!settings} lead, in {!add_settings}' format.
    @raise Invalid_argument on a poisoned checker — persist the rendered
    verdict instead; it is all a poisoned session can ever produce. *)

val decode : Binio_core.reader -> t
(** Inverse of {!encode}.
    @raise Binio_core.Decode_error on truncated, malformed or
    inconsistent input — among it a free-list entry that is out of
    range, repeated, live or the initial transaction's. *)

val check_stream :
  ?skew:int -> ?ts:Ts.mode -> ?gc:gc -> level:Checker.level -> num_keys:int ->
  Txn.t list -> (int, Checker.violation) result
(** Convenience: feed a whole list; [Ok n] = all [n] accepted, or the
    violation at the first offending transaction. *)
