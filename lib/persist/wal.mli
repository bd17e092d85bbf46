(** Per-shard write-ahead log, one file per shard generation.

    A generation's file opens with a {e checkpoint}: a header naming the
    shard, the generation and the server's sid allocator floor, then one
    record per session the shard held when the generation started —
    live sessions as their direct {!Online.encode} serialization (no
    history replay on restore), poisoned ones as their rendered
    counterexample.  The accepted service frames follow as
    open/feed/close records.  Every record is length-prefixed with a
    per-record CRC-32, mirroring the [mtcbin1] binary history format.

    The checkpoint is written to [path ^ ".tmp"], fsynced, renamed over
    [path] and the directory fsynced: the rename is the commit point,
    whatever the {!sync} policy.  Appends are {e group-committed}:
    records accumulate in a user-space buffer and reach the kernel in
    one [write] syscall per {!flush} (the owning shard's drain barrier),
    per ack {!barrier}, per size threshold, or on {!close}.  Bytes
    survive a [kill -9] of the server once flushed; the {!sync} policy
    additionally controls [fsync] (protection against OS crashes and
    power loss).  [Always] keeps the historical
    write-plus-fsync-per-record discipline.

    Reading is total: a file whose header or checkpoint is unusable is
    an [Error]; after the checkpoint, a torn tail parses as a clean
    {!Truncated} stop and a mid-file CRC or tag mismatch as {!Corrupt};
    nothing raises. *)

type sync =
  | Always  (** fsync after every record *)
  | Batch
      (** fsync at the ack {!barrier} (before a verdict is acknowledged)
          and every few hundred records *)
  | Off  (** never fsync appended records *)

val sync_of_string : string -> sync option
val sync_name : sync -> string

(** A checkpointed session's state.  A poisoned session is stored as its
    rendered counterexample instead of its graph — that text is the only
    thing it can ever produce again, and storing it verbatim is what
    makes post-restore renderings byte-identical by construction. *)
type state =
  | Live of Online.t  (** its settings travel inside {!Online.encode} *)
  | Poisoned of {
      settings : Online.settings;
      anomaly : string option;
      rendered : string;
    }

type entry = { sid : int; last_seq : int; state : state }

val settings : state -> Online.settings
(** The session's settings, wherever its state keeps them. *)

type record =
  | R_open of { sid : int; settings : Online.settings }
      (** re-applied on replay, GC policy included *)
  | R_feed of { sid : int; seq : int; txn : Txn.t }
  | R_close of { sid : int }

type header = {
  h_shard : int;
  h_nshards : int;
  h_gen : int;
  h_next_sid : int;  (** server sid allocator floor at checkpoint time *)
}

(** {1 Writing} *)

type writer

val create :
  ?on_fsync:(int -> unit) ->
  path:string ->
  shard:int ->
  nshards:int ->
  gen:int ->
  next_sid:int ->
  sync:sync ->
  entry list ->
  writer
(** Commit a new generation file at [path] holding the checkpoint
    [entries] (tmp + fsync + rename + directory fsync) and return a
    writer appending to it.  After return the checkpoint is durable;
    [path] is replaced only once the whole head is fsynced (the rename
    is the commit point).  [on_fsync] is invoked after every fsync of
    the file with the fsync's measured duration in ns — the metrics /
    stall-detection hook.
    @raise Invalid_argument if a [Live] entry is poisoned
    ({!Online.encode}'s contract — render it to [Poisoned] first), or
    if one encodes to 4 GiB or more.
    @raise Unix.Unix_error on I/O failure. *)

val append : writer -> record -> int
(** Append one record to the group-commit buffer and apply the sync
    policy (which may flush and/or fsync); returns the encoded bytes
    appended. *)

val flush : writer -> unit
(** Write any group-committed records to the kernel in one [write]
    syscall — the owning shard calls this at its drain barrier (ingress
    queue empty).  No fsync. *)

val barrier : writer -> unit
(** Make everything appended so far durable enough to acknowledge a
    verdict: flush, plus an fsync in [Batch] mode. *)

val close : writer -> unit
(** Final fsync (unless [Off]) and close.  Idempotent. *)

(** {1 Reading} *)

type tail =
  | Complete
  | Truncated of int  (** torn tail starting at this byte offset *)
  | Corrupt of { offset : int; reason : string }

val read_path :
  string -> (header * entry list * record list * tail, string) result
(** Read a whole generation file: its header, its checkpoint entries,
    the valid prefix of the records appended after them and how the
    file ended.  [Error reason] (the reason names no path) for an
    unusable file: unreadable, bad magic or header, another version, or
    fewer intact checkpoint records than the header declares — so no
    caller can apply half a checkpoint. *)
