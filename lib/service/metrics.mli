(** Process-wide service counters and per-feed latency histograms,
    thread-safe, dumpable as JSON via the [Stats] frame and on server
    shutdown.

    Backed by {!Obs.Metrics} instruments in a per-instance registry —
    {!registry} exposes it for Prometheus exposition
    ([mtc serve --metrics-port]). *)

type t

val create : unit -> t

val global : t
(** The instance [mtc serve] reports from. *)

val registry : t -> Obs.Metrics.registry
(** The underlying instrument registry (counter/gauge/histogram names
    are [mtc_]-prefixed). *)

val uptime_s : t -> float
(** Seconds since [create]. *)

(** {1 Recording} *)

val connection : t -> unit
val session_opened : t -> unit
val session_closed : t -> unit
val frame_in : t -> unit
val frame_out : t -> unit
val sync : t -> unit
val violation : t -> unit
val throttle : t -> unit
val protocol_error : t -> unit

val feed : t -> ns:int -> words:int -> unit
(** One transaction processed by a session worker, in [ns] nanoseconds,
    allocating [words] minor-heap words ([Gc.minor_words] delta on the
    processing domain). *)

val queue_depth : t -> int -> unit
(** Track the high-water mark of any session's ingress queue. *)

val wal_write : t -> bytes:int -> unit
(** One WAL append of [bytes] bytes. *)

val wal_fsync : t -> unit
(** Wire as the {!Wal.create} [on_fsync] hook. *)

val snapshot : t -> unit
(** One shard snapshot written. *)

val replay : t -> frames:int -> ms:float -> unit
(** Startup restore: [frames] WAL records replayed in [ms]
    milliseconds. *)

val open_conns : t -> int -> unit
(** Current open-connection count (gauge). *)

val epoll_wakeup : t -> unit
(** One event-loop wait that delivered at least one readiness event. *)

val gc_run : t -> ns:int -> reclaimed:int -> unit
(** One watermark compaction: pause of [ns] nanoseconds reclaiming
    [reclaimed] estimated words. *)

val live_words : t -> int -> unit
(** Current aggregate live-word estimate across all online checkers
    (gauge; the server refreshes it after feeds and compactions). *)

val pinned_sessions : t -> int -> unit
(** Current count of sessions flagged by the horizon-pin detector
    (gauge; the janitor recomputes it each tick). *)

val pin_fence : t -> unit
(** One session force-closed by the [--pin-fence close] policy. *)

(** {1 Reading} *)

val txns_fed : t -> int
val throttles : t -> int
val queue_high_water : t -> int

val feed_p50_ns : t -> int
val feed_p99_ns : t -> int
(** Percentiles are bucket upper edges (log-bucketed histogram): exact
    to within a factor of two. *)

val feed_words_mean : t -> float

val pinned_sessions_now : t -> int
val pin_fences : t -> int

val to_json : t -> string
(** One JSON object: [uptime_s], then every instrument of {!registry}
    in registration order, keyed by its name without the [mtc_] prefix
    and the [_total] suffix.  Counters and gauges are numbers;
    histograms (feed latency in ns, feed allocation in minor-heap
    words, GC pause in ns) are count / mean / p50 / p99 / max objects
    read from one snapshot. *)
