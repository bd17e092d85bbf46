(* Service metrics as a thin naming layer over [Obs.Metrics]: each
   instance owns a registry of typed instruments, which is what the
   [--metrics-port] HTTP endpoint serializes (Prometheus text) and what
   [to_json] summarizes for the [Stats] frame.  The histograms snapshot
   consistently, so a mean is never computed from a count and a sum read
   on either side of a concurrent [feed]. *)

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
  (* sequential lets: record fields evaluate in unspecified order, and
     registration order is the exposition order *)
  let c help name = Obs.Metrics.counter reg ~help name in
  let connections = c "Client connections accepted" "mtc_connections_total" in
  let sessions_opened =
    c "Checking sessions opened" "mtc_sessions_opened_total"
  in
  let sessions_closed =
    c "Checking sessions closed" "mtc_sessions_closed_total"
  in
  let txns_fed =
    c "Transactions fed into online checkers" "mtc_txns_fed_total"
  in
  let syncs = c "Sync frames served" "mtc_syncs_total" in
  let violations = c "Isolation violations reported" "mtc_violations_total" in
  let frames_in = c "Frames received" "mtc_frames_in_total" in
  let frames_out = c "Frames sent" "mtc_frames_out_total" in
  let throttles = c "Throttle frames sent" "mtc_throttles_total" in
  let protocol_errors = c "Protocol errors" "mtc_protocol_errors_total" in
  let queue_high_water =
    Obs.Metrics.gauge reg ~help:"High-water mark of any session ingress queue"
      "mtc_queue_high_water"
  in
  let wal_bytes = c "Bytes appended to write-ahead logs" "mtc_wal_bytes_total" in
  let wal_fsyncs = c "WAL fsync calls" "mtc_wal_fsyncs_total" in
  let snapshots = c "Shard snapshots written" "mtc_snapshots_total" in
  let replay_frames =
    c "WAL records replayed at startup" "mtc_replay_frames_total"
  in
  let replay_ms =
    Obs.Metrics.gauge reg ~help:"Startup restore time (milliseconds)"
      "mtc_replay_ms"
  in
  let open_conns =
    Obs.Metrics.gauge reg ~help:"Currently open client connections"
      "mtc_open_conns"
  in
  let epoll_wakeups =
    c "Event-loop wakeups that delivered readiness events"
      "mtc_epoll_wakeups_total"
  in
  let gc_runs =
    c "Watermark compactions across all sessions" "mtc_gc_runs_total"
  in
  let gc_reclaimed_words =
    c "Words reclaimed by watermark compactions" "mtc_gc_reclaimed_words_total"
  in
  let live_words =
    Obs.Metrics.gauge reg
      ~help:"Live words retained by all online checkers (estimate)"
      "mtc_live_words"
  in
  let gc_last_reclaimed =
    Obs.Metrics.gauge reg
      ~help:"Words reclaimed by the most recent compaction"
      "mtc_gc_last_reclaimed_words"
  in
  let horizon_pinned =
    Obs.Metrics.gauge reg
      ~help:"Sessions currently flagged by the horizon-pin detector"
      "mtc_horizon_pinned_sessions"
  in
  let pin_fences =
    c "Sessions force-closed by the horizon-pin fence" "mtc_pin_fences_total"
  in
  let feed_ns =
    Obs.Metrics.histogram reg ~help:"Per-feed processing time (nanoseconds)"
      "mtc_feed_ns"
  in
  let feed_words =
    Obs.Metrics.histogram reg ~help:"Per-feed allocated minor-heap words"
      "mtc_feed_words"
  in
  let gc_ns =
    Obs.Metrics.histogram reg
      ~help:"Watermark-compaction pause (nanoseconds)" "mtc_gc_ns"
  in
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

let registry t = t.reg
let uptime_s t = Unix.gettimeofday () -. t.created_at

let connection t = Obs.Counter.incr t.connections
let session_opened t = Obs.Counter.incr t.sessions_opened
let session_closed t = Obs.Counter.incr t.sessions_closed
let frame_in t = Obs.Counter.incr t.frames_in
let frame_out t = Obs.Counter.incr t.frames_out
let sync t = Obs.Counter.incr t.syncs
let violation t = Obs.Counter.incr t.violations
let throttle t = Obs.Counter.incr t.throttles
let protocol_error t = Obs.Counter.incr t.protocol_errors

let feed t ~ns ~words =
  Obs.Counter.incr t.txns_fed;
  Obs.Histogram.observe t.feed_ns ns;
  Obs.Histogram.observe t.feed_words words

let queue_depth t depth = Obs.Gauge.max_update t.queue_high_water depth
let wal_write t ~bytes = Obs.Counter.add t.wal_bytes bytes
let wal_fsync t = Obs.Counter.incr t.wal_fsyncs
let snapshot t = Obs.Counter.incr t.snapshots

let replay t ~frames ~ms =
  Obs.Counter.add t.replay_frames frames;
  Obs.Gauge.set t.replay_ms (int_of_float (Float.round ms))

let open_conns t n = Obs.Gauge.set t.open_conns n
let epoll_wakeup t = Obs.Counter.incr t.epoll_wakeups

let gc_run t ~ns ~reclaimed =
  Obs.Counter.incr t.gc_runs;
  Obs.Counter.add t.gc_reclaimed_words reclaimed;
  Obs.Gauge.set t.gc_last_reclaimed reclaimed;
  Obs.Histogram.observe t.gc_ns ns

let live_words t n = Obs.Gauge.set t.live_words n
let pinned_sessions t n = Obs.Gauge.set t.horizon_pinned n
let pin_fence t = Obs.Counter.incr t.pin_fences

let txns_fed t = Obs.Counter.get t.txns_fed
let throttles t = Obs.Counter.get t.throttles
let queue_high_water t = Obs.Gauge.get t.queue_high_water
let feed_p50_ns t = Obs.Histogram.percentile t.feed_ns 50.0
let feed_p99_ns t = Obs.Histogram.percentile t.feed_ns 99.0
let feed_words_mean t = Obs.Histogram.mean t.feed_words
let pinned_sessions_now t = Obs.Gauge.get t.horizon_pinned
let pin_fences t = Obs.Counter.get t.pin_fences

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

(* The process-wide instance `mtc serve` reports from; embedders can
   create their own. *)
let global = create ()
