(** Blocking client for the MTC checking service — the library behind
    [mtc feed], the end-to-end service tests and the throughput bench.

    Single-threaded: writes are synchronous; reads are blocking when a
    specific reply is awaited and opportunistic (zero-timeout poll)
    before each {!feed}, so an early violation verdict or a throttle
    advisory is noticed while streaming without paying a round-trip per
    transaction. *)

type t

val connect : Server.addr -> (t, string) result
(** Connect and run the versioned handshake. *)

val close : t -> unit
(** Send [Bye] and close the socket. *)

val server_name : t -> string
(** Server banner from the [Welcome] frame. *)

val throttles : t -> int
(** Number of [Throttle] advisories received so far. *)

val open_session :
  t -> level:Checker.level -> num_keys:int -> ?skew:int -> ?ts:Ts.mode ->
  ?gc:Online.gc -> unit -> (int, string) result
(** Open an independent checker session; returns its session id.  [ts]
    (default [Ts.Ignore]) selects the server-side timestamp fast path —
    in trust or verify mode, feed committed transactions in commit-ts
    order ({!stream_order} already is).  [gc] overrides the server's
    default watermark-GC policy for this session ({!Online.gc}); omit it
    to inherit the server's [--gc-watermark] setting. *)

val resume_session : t -> sid:int -> (int, string) result
(** Re-attach to a session that survived a server restart
    ([mtc serve --wal-dir]); returns the server's last durably logged
    feed sequence number.  Continue feeding with explicit {!feed}
    [?seq] values strictly above it — anything at or below is a replay
    duplicate the server silently drops. *)

type feed_outcome =
  | Accepted  (** enqueued; no verdict yet *)
  | Early_verdict of Wire.verdict
      (** the server already reported a violation — stop streaming *)

val feed : ?seq:int -> t -> sid:int -> Txn.t -> (feed_outcome, string) result
(** [?seq] pins the frame's sequence number (use the transaction's
    position so it doubles as the durable-resume cursor); default is the
    client's internal counter. *)

val seq_floor : t -> int -> unit
(** Raise the internal sequence counter to at least [n], keeping
    internally numbered frames (syncs) clear of explicit feed seqs. *)

val sync : t -> sid:int -> (Wire.verdict, string) result
(** Round-trip: the session's current verdict ([V_ok n] after [n]
    accepted transactions, or the poisoned counterexample). *)

val stats : t -> (string, string) result
(** The server's metrics snapshot as JSON. *)

val session_stats :
  t ->
  (Wire.session_stat list * Wire.journal_event list * int, string) result
(** Per-session telemetry plus the tail of the server's event journal
    (newest events, capped server-side) and the journal's cumulative
    dropped-event count — the wire behind [mtc stats --sessions],
    [--events] and [mtc top]. *)

val close_session : t -> sid:int -> (unit, string) result

val session_closed : t -> sid:int -> Wire.close_reason option
(** Whether the server closed this session (idle timeout, shutdown,
    protocol error), as observed from already-received frames. *)

val stream_order : History.t -> Txn.t list
(** A history's transactions sorted by (commit_ts, id) — the order a
    monitoring proxy would deliver them in. *)

val feed_history :
  ?resume_from:int ->
  ?ack_every:int ->
  ?delay:float ->
  t ->
  sid:int ->
  History.t ->
  (Wire.verdict, string) result
(** Stream a whole history in {!stream_order} with position-based feed
    seqs, stopping early on a violation verdict, then {!sync} for the
    final verdict.  [?resume_from] (a {!resume_session} result) skips
    the prefix the server already holds.  [?ack_every] [n > 0] also
    syncs after every [n] accepted transactions (stopping on a
    violation), so progress is acknowledged — and, on a durable server,
    fsynced — while streaming; [?delay] sleeps that many seconds
    between transactions.  Both default to off. *)
