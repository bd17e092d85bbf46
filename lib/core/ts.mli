(** Timestamp-assisted version orders — the Vbox fast path (ROADMAP item
    2; "Vbox: Efficient Black-Box Serializability Verification", arxiv
    2503.05163).

    When the engine exposes begin/commit timestamps, the version order of
    every key is simply its committed final writes sorted by
    [(commit_ts, vertex)], and the writer of a read is {e predicted} by
    binary search — the latest write with [commit_ts <= start_ts]
    (non-strict, matching the MVCC engine's visibility rule) — instead of
    resolved through the write table.

    - [Verify] certifies every prediction against the value actually read
      and falls back {e per key} to full MTC value inference on any
      disagreement, so verdicts and rendered counterexamples stay
      byte-identical with [Ignore]; the disagreements themselves are
      reported as timestamp-lie diagnostics.
    - [Trust] takes the timestamps at face value: no duplicate-value
      screen, no write table, every read attributed to its predicted
      writer.  The least work, but a lying timestamp oracle can change
      the verdict — use [Verify] to detect one.
    - [Ignore] is the classic value-only pipeline (the default).

    The chains are built like {!Index}'s write table, with commit
    timestamps in place of values: one flat slot range per key, filled
    in scan order by serial passes, and only the keys whose commit
    timestamps ever decrease are sorted, on the pool, each key on its
    own, so the structure is identical for every pool size. *)

type mode = Ignore | Trust | Verify

val mode_name : mode -> string
val mode_of_string : string -> mode option
val all_modes : mode list

(** One read whose timestamp prediction disagreed with the value it
    actually observed — evidence of a lying (or skewed) timestamp
    oracle.  [d_actual] is what value resolution concluded;
    [d_actual_commit] is that writer's commit timestamp when it exists
    (committed writers), else [min_int]. *)
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
  mode : mode;  (** [Trust] or [Verify]; never [Ignore] *)
  key_off : int array;  (** key -> first chain slot; length num_keys+1 *)
  c_vertex : int array;  (** slot -> committed vertex of the writer *)
  c_commit : int array;  (** slot -> the writer's commit_ts *)
  c_value : int array;  (** slot -> the final value written to the key *)
  op_base : int array;
      (** committed position -> first global op position; length m+1 *)
  pred_slot : int array;
      (** global op position -> predicted slot cached by certification,
          or -1; lets {!Deps.build} skip re-predicting *)
  slow : Bytes.t;
      (** per-key certification-failed flag: reads of a slow key fall
          back to value inference in {!Deps.build} *)
  mutable slow_keys : int;
  mutable fast_reads : int;  (** external reads judged by prediction *)
  mutable mismatched_reads : int;
  mutable diags : diag list;  (** capped sample, newest first *)
  mutable bad_windows : (Txn.id * int * int) list;
      (** committed transactions with [start_ts > commit_ts] *)
}
(** Mutable counters and flags are filled by {!Int_check.check_ts}
    during certification (serially); treat them as read-only elsewhere. *)

val build : ?pool:Pool.t -> mode:mode -> Index.t -> (t, string) result
(** Build the per-key version chains from commit timestamps.  In
    [Verify] mode this first runs {!History.unique_values} on [pool]
    and returns its error, so a [Malformed] verdict is byte-identical
    with the [Ignore] pipeline; [Trust] skips the screen.
    @raise Invalid_argument on [mode = Ignore]. *)

val total_slots : t -> int

val predict : t -> Op.key -> start_ts:int -> int
(** The slot of the latest version of the key with
    [commit_ts <= start_ts].  Total: the initial transaction's write
    (commit_ts = min_int) sits at the bottom of every chain. *)

val predict_memo : t -> int array -> Op.key -> start_ts:int -> int
(** {!predict} seeded by a caller-owned per-key hint array (length
    num_keys, initialized to -1): returns exactly [predict]'s slot, but
    mostly-increasing start timestamps turn the binary search into an
    amortized O(1) forward walk.  The hint array must not be shared
    across concurrent callers. *)

val cache_slot : t -> sv:int -> op:int -> int -> unit
(** Record the predicted slot of the external read at committed position
    [sv], op index [op].  Certification slices own disjoint committed
    ranges, so concurrent caching is race-free. *)

val cached_slot : t -> sv:int -> op:int -> int
(** The cached prediction, or -1 if that read was never certified (or
    mismatched, in which case its key is slow anyway). *)

val slot_vertex : t -> int -> int
val slot_writer : t -> int -> Txn.id
val slot_value : t -> int -> Op.value
val slot_commit : t -> int -> int

val is_fast_key : t -> Op.key -> bool
(** [Trust]: always.  [Verify]: true unless certification flagged the
    key, in which case its reads resolve through the write table. *)

val mark_slow : t -> Op.key -> unit
(** Flag a key for per-key fallback (certification found a mismatched
    read).  Not thread-safe: call only from the serial judgement pass. *)

val max_diags : int

val add_diag : t -> diag -> unit
(** Record a mismatch sample (keeps at most {!max_diags}). *)

val render_report : t -> string option
(** Human-readable certification report: mismatch counts, a sample of
    offending (reader, predicted writer, actual writer) triples with
    their disagreeing timestamps, and any inverted commit windows.
    [None] when certification saw nothing suspicious. *)
