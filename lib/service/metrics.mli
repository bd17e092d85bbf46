(** The service's instruments: one {!Obs.Metrics} registry of counters,
    gauges and histograms, each named [mtc_]… ([_total] for counters).
    The server updates them with {!Obs.Counter}, {!Obs.Gauge} and
    {!Obs.Histogram}; [mtc serve --metrics-port] exposes the registry as
    Prometheus text and the [Stats] frame as {!to_json}. *)

type t = {
  reg : Obs.Metrics.registry;
  created_at : float;
  connections : Obs.Counter.t;  (** wire connections accepted *)
  sessions_opened : Obs.Counter.t;
  sessions_closed : Obs.Counter.t;
  txns_fed : Obs.Counter.t;
  syncs : Obs.Counter.t;
  violations : Obs.Counter.t;
  frames_in : Obs.Counter.t;
  frames_out : Obs.Counter.t;
  throttles : Obs.Counter.t;
  protocol_errors : Obs.Counter.t;
  queue_high_water : Obs.Gauge.t;  (** any session's ingress queue *)
  wal_bytes : Obs.Counter.t;  (** appended records *)
  wal_fsyncs : Obs.Counter.t;
  snapshots : Obs.Counter.t;  (** shard checkpoints *)
  replay_frames : Obs.Counter.t;  (** WAL records replayed at startup *)
  replay_ms : Obs.Gauge.t;
  open_conns : Obs.Gauge.t;  (** wire connections open now *)
  epoll_wakeups : Obs.Counter.t;
      (** event-loop waits that delivered readiness events *)
  gc_runs : Obs.Counter.t;
  gc_reclaimed_words : Obs.Counter.t;
  live_words : Obs.Gauge.t;  (** all online checkers (estimate) *)
  gc_last_reclaimed : Obs.Gauge.t;
  horizon_pinned : Obs.Gauge.t;  (** sessions the pin detector flags *)
  pin_fences : Obs.Counter.t;
  feed_ns : Obs.Histogram.t;  (** per-feed processing time *)
  feed_words : Obs.Histogram.t;  (** per-feed minor-heap words *)
  gc_ns : Obs.Histogram.t;  (** compaction pause *)
}

val create : unit -> t
(** A fresh registry, instruments registered in the field order above. *)

val uptime_s : t -> float
(** Seconds since [create]. *)

val to_json : t -> string
(** One JSON object: [uptime_s], then every instrument of [reg] in
    registration order, keyed by its name without the [mtc_] prefix
    and the [_total] suffix.  Counters and gauges are numbers;
    histograms are count / mean / p50 / p99 / max objects read from one
    snapshot. *)
