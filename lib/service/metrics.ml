(* The service's instruments in one [Obs.Metrics] registry: what the
   [--metrics-port] scrape serializes (Prometheus text) and what
   [to_json] summarizes for the [Stats] frame.  The histograms snapshot
   consistently, so a mean is never computed from a count and a sum read
   on either side of a concurrent feed. *)

type t = {
  reg : Obs.Metrics.registry;
  created_at : float;
  connections : Obs.Counter.t;
  sessions_opened : Obs.Counter.t;
  sessions_closed : Obs.Counter.t;
  txns_fed : Obs.Counter.t;
  syncs : Obs.Counter.t;
  violations : Obs.Counter.t;
  frames_in : Obs.Counter.t;
  frames_out : Obs.Counter.t;
  throttles : Obs.Counter.t;
  protocol_errors : Obs.Counter.t;
  queue_high_water : Obs.Gauge.t;
  wal_bytes : Obs.Counter.t;
  wal_fsyncs : Obs.Counter.t;
  snapshots : Obs.Counter.t;
  replay_frames : Obs.Counter.t;
  replay_ms : Obs.Gauge.t;
  open_conns : Obs.Gauge.t;
  epoll_wakeups : Obs.Counter.t;
  gc_runs : Obs.Counter.t;
  gc_reclaimed_words : Obs.Counter.t;
  live_words : Obs.Gauge.t;
  gc_last_reclaimed : Obs.Gauge.t;
  horizon_pinned : Obs.Gauge.t;
  pin_fences : Obs.Counter.t;
  feed_ns : Obs.Histogram.t;
  feed_words : Obs.Histogram.t;
  gc_ns : Obs.Histogram.t;
}

let create () =
  let reg = Obs.Metrics.create () in
  let c name help = Obs.Metrics.counter reg ~help name
  and g name help = Obs.Metrics.gauge reg ~help name
  and h name help = Obs.Metrics.histogram reg ~help name in
  (* sequential lets: record fields evaluate in unspecified order, and
     registration order is the exposition order *)
  let connections = c "mtc_connections_total" "Client connections accepted" in
  let sessions_opened =
    c "mtc_sessions_opened_total" "Checking sessions opened"
  in
  let sessions_closed =
    c "mtc_sessions_closed_total" "Checking sessions closed"
  in
  let txns_fed =
    c "mtc_txns_fed_total" "Transactions fed into online checkers"
  in
  let syncs = c "mtc_syncs_total" "Sync frames served" in
  let violations = c "mtc_violations_total" "Isolation violations reported" in
  let frames_in = c "mtc_frames_in_total" "Frames received" in
  let frames_out = c "mtc_frames_out_total" "Frames sent" in
  let throttles = c "mtc_throttles_total" "Throttle frames sent" in
  let protocol_errors = c "mtc_protocol_errors_total" "Protocol errors" in
  let queue_high_water =
    g "mtc_queue_high_water" "High-water mark of any session ingress queue"
  in
  let wal_bytes =
    c "mtc_wal_bytes_total" "Bytes appended to write-ahead logs"
  in
  let wal_fsyncs = c "mtc_wal_fsyncs_total" "WAL fsync calls" in
  let snapshots = c "mtc_snapshots_total" "Shard snapshots written" in
  let replay_frames =
    c "mtc_replay_frames_total" "WAL records replayed at startup"
  in
  let replay_ms = g "mtc_replay_ms" "Startup restore time (milliseconds)" in
  let open_conns = g "mtc_open_conns" "Currently open client connections" in
  let epoll_wakeups =
    c "mtc_epoll_wakeups_total"
      "Event-loop wakeups that delivered readiness events"
  in
  let gc_runs =
    c "mtc_gc_runs_total" "Watermark compactions across all sessions"
  in
  let gc_reclaimed_words =
    c "mtc_gc_reclaimed_words_total" "Words reclaimed by watermark compactions"
  in
  let live_words =
    g "mtc_live_words" "Live words retained by all online checkers (estimate)"
  in
  let gc_last_reclaimed =
    g "mtc_gc_last_reclaimed_words"
      "Words reclaimed by the most recent compaction"
  in
  let horizon_pinned =
    g "mtc_horizon_pinned_sessions"
      "Sessions currently flagged by the horizon-pin detector"
  in
  let pin_fences =
    c "mtc_pin_fences_total" "Sessions force-closed by the horizon-pin fence"
  in
  let feed_ns = h "mtc_feed_ns" "Per-feed processing time (nanoseconds)" in
  let feed_words = h "mtc_feed_words" "Per-feed allocated minor-heap words" in
  let gc_ns = h "mtc_gc_ns" "Watermark-compaction pause (nanoseconds)" in
  {
    reg;
    created_at = Unix.gettimeofday ();
    connections;
    sessions_opened;
    sessions_closed;
    txns_fed;
    syncs;
    violations;
    frames_in;
    frames_out;
    throttles;
    protocol_errors;
    queue_high_water;
    wal_bytes;
    wal_fsyncs;
    snapshots;
    replay_frames;
    replay_ms;
    open_conns;
    epoll_wakeups;
    gc_runs;
    gc_reclaimed_words;
    live_words;
    gc_last_reclaimed;
    horizon_pinned;
    pin_fences;
    feed_ns;
    feed_words;
    gc_ns;
  }

let uptime_s t = Unix.gettimeofday () -. t.created_at

(* The Stats JSON walks the registry the Prometheus exporter walks: after
   [uptime_s], each instrument in registration order under its name less
   the [mtc_] prefix and the [_total] suffix — one source of truth for
   metric names. *)
let json_key name =
  (* every name [create] registers starts with [mtc_] *)
  let n = String.length name in
  let n = if String.ends_with ~suffix:"_total" name then n - 6 else n in
  String.sub name 4 (n - 4)

let to_json t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"uptime_s\":%.3f" (uptime_s t);
  Obs.Metrics.iter t.reg (fun ~name ~help:_ instrument ->
      Printf.bprintf b ",\"%s\":" (json_key name);
      match instrument with
      | Obs.Metrics.I_counter c -> Printf.bprintf b "%d" (Obs.Counter.get c)
      | Obs.Metrics.I_gauge g -> Printf.bprintf b "%d" (Obs.Gauge.get g)
      | Obs.Metrics.I_histogram h ->
          let s = Obs.Histogram.snapshot h in
          Printf.bprintf b
            "{\"count\":%d,\"mean\":%.0f,\"p50\":%d,\"p99\":%d,\"max\":%d}"
            s.Obs.Histogram.s_count (Obs.Histogram.mean_of s)
            (Obs.Histogram.percentile_of s 50.0)
            (Obs.Histogram.percentile_of s 99.0)
            s.Obs.Histogram.s_max);
  Buffer.add_char b '}';
  Buffer.contents b
