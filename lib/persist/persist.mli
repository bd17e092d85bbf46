(** Durability manager for the checking service: one {!Wal} generation
    file per shard, each opening with a checkpoint of the shard's
    sessions and logging every frame after it.

    Restore contract: {!open_dir} reads, for every shard found on disk,
    that shard's newest generation file alone — its checkpoint, then
    its record tail.  Poisoned sessions re-render byte-identical
    counterexamples, live sessions resume at exactly the last frame the
    file holds.  It then immediately checkpoints everything under the
    {e current} shard count (sessions re-home to [sid mod nshards]), so
    a restart may change [-j] freely.  A file it cannot read, or a
    snapshot file of the older two-file layout, is refused by name
    before anything on disk changes.

    Threading: after {!open_dir}, each shard's {!append}/{!barrier}/
    {!checkpoint} must be called from the domain that owns that shard
    (the same discipline as the checking itself) — different shards
    never contend. *)

type replay_stats = {
  rs_frames : int;  (** tail records replayed *)
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
  (t * Wal.entry list * int * replay_stats, string) result
(** Open (creating if needed) a persistence directory, restore whatever
    it holds, start a fresh generation.  The restored sessions come in
    sid order, each at its highest applied feed sequence number; their
    [Live] states are never poisoned — a violation hit during replay is
    rendered to [Poisoned] on the spot.  The [int] is the sid allocator
    floor (strictly above every restored sid).  [render] turns a
    violation found during replay into its [(anomaly, rendered)] pair —
    pass the exact renderer the live server uses, byte-identity of
    counterexamples depends on it.  [on_fsync] is the metrics hook,
    called with each fsync's duration in ns.  [Error] names the file it
    could not read and why (["wal-0-3: WAL version 2 (this build reads
    3)"]); the directory is then left as it was. *)

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

val checkpoint : t -> shard:int -> next_sid:int -> Wal.entry list -> unit
(** Start the shard's next generation with these sessions as its
    checkpoint; the old generation's file is closed and unlinked once
    the new one is durable.  On an exception the shard keeps appending
    to its old generation. *)

val close : t -> unit
(** Close every WAL (final fsync per policy).  Idempotent. *)
