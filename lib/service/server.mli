(** The networked checking daemon: an epoll event loop multiplexing many
    concurrent client sessions over Unix-domain and TCP sockets, each
    session owning its own {!Online.t} (level, key-space size and clock
    skew negotiated at open).

    One event-loop systhread owns every socket (accept, frame parsing,
    egress, the [metrics_port] scrapes) and every timer (idle timeouts,
    the horizon-pin detector, the journal sink's drain) through
    {!Evloop} — a connection costs a file descriptor and a buffer, not a
    systhread, so tens of thousands of idle connections are cheap.
    Checking runs on a fixed array of shards backed by a {!Pool} of
    worker domains, so concurrent sessions verify on separate cores
    instead of serializing on the runtime lock.  A session is pinned to
    one shard for life: its items drain in FIFO order on a single domain
    at a time, so verdicts and counterexamples are bit-identical to a
    single-threaded server's.

    Durability ([wal_dir]): every accepted open/feed/close is appended
    to the owning shard's write-ahead log before it is applied, and
    shards periodically checkpoint their sessions into the head of a new
    log generation (SIGHUP under {!run}, {!checkpoint}, every
    [snapshot_every] feeds, and on {!stop}).  After a crash, a restarted
    server restores each shard's newest generation — checkpoint, then
    log tail: clients re-attach with [Resume_session] and continue from
    the server-reported [last_seq]; poisoned sessions re-render the
    byte-identical counterexample.  {!start} fails, naming the file, on
    a generation it cannot read.

    Guarantees:
    - per-session ingress queues are bounded ([queue_capacity]); a full
      queue pauses that connection's read interest (the hard
      backpressure the transport propagates) and emits advisory
      [Throttle]/[Resume] frames around the high-water mark;
    - a session that produced a [Violation] verdict is poisoned: every
      further feed or sync is answered with the identical rendered
      counterexample;
    - sessions idle longer than [idle_timeout] are closed with reason
      [R_idle] (restored-but-unresumed sessions are exempt);
    - a mid-frame client disconnect abandons only that connection —
      other connections and sessions are untouched;
    - {!stop} (and the SIGTERM handling of {!run}) drains the frames
      already accepted before saying [Bye]. *)

type addr = A_unix of string | A_tcp of string * int

type pin_fence =
  | Fence_off  (** detect and report only *)
  | Fence_close
      (** force-close a pinned session ([R_pinned]) so its retained
          memory is released and the live-words bound holds again *)

val addr_of_string : string -> (addr, string) result
(** ["unix:PATH"] or ["tcp:HOST:PORT"] ([tcp::PORT] binds 127.0.0.1;
    port 0 asks the kernel for an ephemeral port — read the result back
    with {!bound_addrs}). *)

val addr_to_string : addr -> string

type config = {
  listen : addr list;
  queue_capacity : int;  (** per-session ingress bound *)
  idle_timeout : float;  (** seconds; [<= 0] disables idle closing *)
  drain_delay : float;
      (** artificial per-item worker delay (seconds) — a test/bench knob
          to provoke backpressure deterministically; keep 0 in production *)
  shards : int;
      (** checking shards = worker domains; [<= 0] picks
          [Pool.default_size ()] ([MTC_JOBS] or the recommended domain
          count) *)
  metrics_port : int option;
      (** serve Prometheus text exposition over HTTP on
          127.0.0.1:[port] ([GET /metrics], one request per connection,
          answered by the event loop); [0] asks the kernel for an
          ephemeral port — read it back with {!metrics_port} *)
  wal_dir : string option;
      (** durability directory (created if missing); [None] = off *)
  wal_sync : Wal.sync;
      (** fsync policy for WAL appends; see {!Wal.sync} *)
  snapshot_every : int;
      (** per-shard feeds between automatic checkpoints; [0] = only on
          SIGHUP / {!checkpoint} / shutdown *)
  gc : Online.gc;
      (** default watermark-GC policy for new sessions
          ([mtc serve --gc-watermark]); an [Open_session] frame may
          override it per session *)
  pin_warn_after : float;
      (** seconds a session may stall (no feed progress while retaining
          live words) before the detector flags it as pinning the GC
          horizon; [<= 0] disables the detector *)
  pin_fence : pin_fence;
      (** what to do with a flagged session; see {!pin_fence} *)
  journal : string option;
      (** JSONL sink for the {!Obs.Journal} event stream (appended,
          created if missing); [None] = in-memory ring only *)
}

val default_config : config
(** No listeners (callers must fill [listen]), queue of 1024, no idle
    timeout, auto shard count, no metrics port, no durability
    ([wal_dir = None], [Batch] sync, no automatic checkpoints),
    watermark GC off, pin detector off ([Fence_off]), no journal sink.

    Fixed for every server: the [Welcome] frame advertises
    ["mtc-serve/1"], an [Open_session] may ask for at most 2{^22} keys,
    and {!stop} always checkpoints a durable server. *)

type t

val start : config -> t
(** Restore [wal_dir] (if set), bind every [listen] address (and the
    metrics port), and spawn the event-loop thread and the shards.
    @raise Invalid_argument if [listen] is empty.
    @raise Unix.Unix_error if an address cannot be bound.
    @raise Failure if the persistence directory cannot be opened or
    restored. *)

val bound_addrs : t -> addr list
(** The actually-bound addresses (TCP port 0 resolved). *)

val metrics : t -> Metrics.t
(** This server's instruments, created by {!start}; they keep their
    values after {!stop}. *)

val metrics_port : t -> int option
(** The actually-bound metrics port (config port 0 resolved); [None]
    when the exposition endpoint is off. *)

val event_backend : t -> string
(** The {!Evloop} backend multiplexing connections: ["epoll"] on Linux,
    ["select"] elsewhere. *)

val checkpoint : t -> unit
(** Ask every shard to checkpoint its sessions into a new WAL
    generation (a no-op without [wal_dir]).  Asynchronous: shards checkpoint before
    picking up their next session.  {!run} wires SIGHUP to this. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, shut down ingress on every
    connection, let the shards drain their queues, send
    [Session_closed]+[Bye], checkpoint, close everything.  Idempotent;
    blocks until the drain completes. *)

val run :
  ?on_signal:int list -> ?on_ready:(t -> unit) -> config -> unit
(** [start], then block until one of [on_signal] (default SIGTERM and
    SIGINT) arrives, then {!stop}.  [on_ready] runs right after the
    listeners are bound — used by the CLI to print the addresses.  When
    durability is on, SIGHUP triggers {!checkpoint}. *)
