(** Durability manager for the checking service: one {!Wal} per shard
    plus the generation protocol tying WALs to {!Snapshot_store}
    snapshots.

    Restore contract: {!open_dir} loads, for every shard found on disk,
    the newest valid snapshot generation and replays that generation's
    WAL tail on top of it — poisoned sessions re-render byte-identical
    counterexamples, live sessions resume at exactly the last frame the
    WAL holds.  It then immediately re-checkpoints everything under the
    {e current} shard count (sessions re-home to [sid mod nshards]), so
    a restart may change [-j] freely.

    Threading: after {!open_dir}, each shard's {!append}/{!barrier}/
    {!checkpoint} must be called from the domain that owns that shard
    (the same discipline as the checking itself) — different shards
    never contend. *)

type replay_stats = {
  rs_frames : int;  (** WAL records replayed *)
  rs_ms : float;  (** wall-clock restore time *)
  rs_sessions : int;  (** sessions restored *)
}

type t

val open_dir :
  ?on_fsync:(int -> unit) ->
  dir:string ->
  nshards:int ->
  sync:Wal.sync ->
  render:(level:Checker.level -> Checker.violation -> string option * string) ->
  unit ->
  (t * Snapshot_store.entry list * int * replay_stats, string) result
(** Open (creating if needed) a persistence directory, restore whatever
    it holds, start a fresh generation.  The restored sessions come in
    sid order, each at its highest applied feed sequence number; their
    [Live] states are never poisoned — a violation hit during replay is
    rendered to [Poisoned] on the spot.  The [int] is the sid allocator
    floor (strictly above every restored sid).  [render] turns a
    violation found during replay into its [(anomaly, rendered)] pair —
    pass the exact renderer the live server uses, byte-identity of
    counterexamples depends on it.  [on_fsync] is the metrics hook,
    called with each fsync's duration in ns. *)

val dir : t -> string

val append : t -> shard:int -> Wal.record -> int
(** Append to the shard's WAL; returns bytes written.  Call {e before}
    applying the record to the checker (write-ahead). *)

val flush : t -> shard:int -> unit
(** {!Wal.flush} on the shard's WAL — the group-commit drain barrier;
    call when the shard's ingress goes idle. *)

val barrier : t -> shard:int -> unit
(** {!Wal.barrier} on the shard's WAL — before acknowledging a sync
    verdict in [Batch] mode. *)

val checkpoint :
  t -> shard:int -> next_sid:int -> Snapshot_store.entry list -> unit
(** Snapshot this shard's sessions and rotate its WAL to a fresh
    generation; the old generation's files are unlinked once the new
    ones are durable. *)

val close : t -> unit
(** Close every WAL (final fsync per policy).  Idempotent. *)
