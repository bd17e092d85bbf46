(* The MTC checking daemon: an epoll event loop multiplexing many client
   sessions over Unix-domain and TCP sockets, with optional durability
   (per-shard write-ahead logs headed by checkpoints, lib/persist).

   Threading model — one event-loop systhread for ALL socket I/O and
   timers, domains for the checking:

   - a single {!Evloop} thread owns every socket: it accepts, reads
     frames from non-blocking fds into per-connection buffers, parses
     them ({!Wire.of_string}) and enqueues work onto per-session bounded
     queues.  A connection costs an fd and a buffer, not a systhread —
     10k idle connections are 10k epoll registrations.  The same loop
     answers [--metrics-port] scrapes (one HTTP request per non-blocking
     connection) and runs the janitor's sweeps on a timer (idle
     timeouts, the horizon-pin detector, the journal sink's drain) when
     any of those is on;
   - a fixed array of {e shards}, each a run queue of sessions serviced
     by one loop; the loops execute on a {!Pool} of worker domains (a
     coordinator systhread participates via [Pool.run]), so N sessions
     check on up to [config.shards] cores in parallel.  A session is
     pinned to shard [sid mod shards] for its whole life: exactly one
     shard ever touches a session's {!Online.t}, items drain in FIFO
     order, and the shard is the only writer of the session's [Verdict]
     frames — verdicts and counterexamples are bit-identical to the
     single-threaded server.

   Backpressure: when a session's queue is full the event loop leaves
   the frame unparsed in the connection buffer and drops the fd's read
   interest (the hard backpressure TCP propagates), re-arming when the
   owning shard drains the queue to its low-water mark; the advisory
   [Throttle]/[Resume] frames bracket the episode as before.

   Egress never blocks a shard: {!send} encodes into a per-connection
   output queue and the event loop writes it out, keeping write interest
   on while the socket is full.

   Durability ([config.wal_dir]): every accepted open/feed/close is
   appended to the owning shard's WAL {e before} it is applied, and
   shards checkpoint their sessions into the head of a new WAL
   generation ({!checkpoint}, SIGHUP under {!run}, every
   [snapshot_every] feeds, and on {!stop}).  After a crash the server
   restores each shard's newest generation, checkpoint then tail: live
   sessions resume at exactly the last logged frame
   ([Resume_session]/[Session_resumed]), poisoned sessions re-render
   the byte-identical counterexample.

   Poisoned sessions (a violation verdict was issued) keep answering
   every further feed/sync with the identical rendered counterexample.

   Graceful shutdown ({!stop}, wired to SIGTERM by {!run}) shuts the
   ingress half of every connection, lets the shards drain what was
   already queued, then sends [Session_closed]+[Bye] and closes. *)

type addr = A_unix of string | A_tcp of string * int

let addr_to_string = function
  | A_unix path -> "unix:" ^ path
  | A_tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let addr_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then Result.Error "empty unix socket path"
      else Ok (A_unix path)
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> Result.Error (Printf.sprintf "tcp address %S needs host:port" rest)
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match int_of_string_opt port with
          | Some p when p >= 0 && p < 65536 ->
              Ok (A_tcp ((if host = "" then "127.0.0.1" else host), p))
          | _ -> Result.Error (Printf.sprintf "bad tcp port %S" port)))
  | _ ->
      Result.Error
        (Printf.sprintf "bad address %S (want unix:PATH or tcp:HOST:PORT)" s)

type config = {
  listen : addr list;
  queue_capacity : int;  (** per-session ingress bound *)
  idle_timeout : float;  (** seconds; <= 0 disables *)
  drain_delay : float;
      (** artificial per-item worker delay (seconds) — a test/bench knob
          to provoke backpressure deterministically; 0 in production *)
  shards : int;  (** checking shards (domains); [<= 0] = auto *)
  metrics_port : int option;
      (** Prometheus exposition on 127.0.0.1:port; 0 = ephemeral *)
  wal_dir : string option;  (** durability directory; [None] = off *)
  wal_sync : Wal.sync;
  snapshot_every : int;
      (** per-shard feeds between automatic checkpoints; 0 = only on
          SIGHUP / {!checkpoint} / shutdown *)
  gc : Online.gc;
      (** default watermark-GC policy for new sessions; an
          [Open_session] frame may override it per session *)
  pin_warn_after : float;
      (** horizon-pin detector: flag a session whose feed frontier has
          not advanced for this many seconds while it still retains
          live words; <= 0 disables *)
  pin_fence : pin_fence;
      (** what to do with a flagged session beyond the journal event
          and the [horizon_pinned_sessions] gauge *)
  journal : string option;
      (** JSONL sink for the {!Obs.Journal} event stream; [None] = no
          file (events still reach [Session_stats] replies) *)
}

and pin_fence = Fence_off | Fence_close

let default_config =
  {
    listen = [];
    queue_capacity = 1024;
    idle_timeout = 0.0;
    drain_delay = 0.0;
    shards = 0;
    metrics_port = None;
    wal_dir = None;
    wal_sync = Wal.Batch;
    snapshot_every = 0;
    gc = Online.Gc_off;
    pin_warn_after = 0.0;
    pin_fence = Fence_off;
    journal = None;
  }

(* Advertised in the [Welcome] frame. *)
let server_name = "mtc-serve/1"

(* Largest [num_keys] an [Open_session] may ask for: a checker costs
   memory per key. *)
let max_keys = Stdlib.min (1 lsl 22) Online.max_keys

(* ------------------------------------------------------------------ *)

type item =
  | I_open  (** WAL the open, then send [Session_opened] *)
  | I_feed of int * Txn.t  (** seq, txn *)
  | I_sync of int  (** seq *)
  | I_resume  (** send [Session_resumed] after a re-attach *)
  | I_close of Wire.close_reason

type checker_state =
  | S_live of Online.t
  | S_poisoned of { anomaly : string option; rendered : string }

type session = {
  sid : int;
  settings : Online.settings;
  mutable checker : checker_state;  (** owning shard only *)
  mutable last_seq : int;  (** highest WAL-logged feed seq; shard only *)
  mutable ep : conn option;
      (** attachment; [None] while restored-but-unresumed or after the
          connection died.  Guarded by [smu]. *)
  shard_ix : int;
  shard : shard;  (** fixed home shard: [sid mod shards] *)
  queue : item Queue.t;
  mutable queued : int;
  mutable throttled : bool;
      (** the queue filled: a [Throttle] went out and the event loop
          stopped reading [ep]; at low water the shard sends [Resume]
          and posts [A_unpause] *)
  mutable closing : bool;  (** an [I_close] is queued; drop later frames *)
  mutable abandoned : bool;  (** connection died; shard must bail out *)
  mutable on_runq : bool;  (** guarded by [shard.shmu] *)
  mutable finished : bool;  (** terminal; guarded by [smu] *)
  smu : Mutex.t;
  mutable last_activity : float;
  mutable lw_seen : int;
      (** this session's last-sampled {!Online.live_words} contribution
          to the aggregate gauge; owning shard only *)
  opened_at : float;
  mutable feeds : int;
      (** feeds accepted over the session's lifetime.  Written by the
          owning shard only; the pin detector and the telemetry path
          read it without [smu] — a plain int, so a stale read is the
          worst case *)
  mutable pin_frontier : int;  (** [feeds] at the last progress check *)
  mutable pin_since : float;  (** when [pin_frontier] last advanced *)
  mutable pinned : bool;
      (** flagged by the horizon-pin detector.  Event-loop-only writes;
          racy reads from the telemetry path are fine *)
}

and conn = {
  fd : Unix.file_descr;
  token : int;  (** evloop registration key *)
  http : bool;
      (** a [--metrics-port] scrape: one request head in, one response
          out, then close; not counted in [connections]/[open_conns] *)
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  outq : string Queue.t;  (** encoded frames awaiting write; [out_mu] *)
  mutable outoff : int;  (** bytes of the head frame already written *)
  enc_scratch : Buffer.t;
  enc_out : Buffer.t;
  out_mu : Mutex.t;
  mutable out_dead : bool;  (** peer unreachable or fd closed *)
  mutable flush_queued : bool;  (** an [A_flush] is pending; [out_mu] *)
  mutable want_write : bool;  (** evloop thread only *)
  mutable read_on : bool;  (** evloop thread only *)
  sessions : (int, session) Hashtbl.t;
  closed_sids : (int, unit) Hashtbl.t;
      (** sessions that lived on this connection and are gone: frames
          racing the (already sent) [Session_closed] are dropped rather
          than answered with an unattributable unknown-session error *)
  cmu : Mutex.t;
  mutable cstate : cstate;  (** evloop thread only *)
  mutable paused_on : session option;  (** evloop thread only *)
  mutable eof_seen : bool;  (** EOF arrived while paused *)
  mutable gone : bool;  (** closed and deregistered *)
  mutable draining : bool;  (** server shutdown: drain, then close *)
}

and cstate =
  | C_http  (** a scrape awaiting the end of its request head *)
  | C_hello  (** awaiting the [Hello] handshake *)
  | C_ready
  | C_draining  (** ingress shut; sessions winding down via [I_close] *)
  | C_flush_close  (** flush the output queue, then close *)

and shard = {
  ix : int;
  runq : session Queue.t;  (** sessions with work, each at most once *)
  shmu : Mutex.t;
  shcv : Condition.t;
  mutable snap_req : bool;  (** guarded by [shmu] *)
  mutable feeds_since_snap : int;  (** owning domain only *)
}

type action =
  | A_flush of conn
  | A_unpause of conn * session
  | A_conn_done of conn  (** last session of a draining conn finished *)

type ep_target =
  | T_listener of Unix.file_descr * addr * bool  (** [true]: scrapes *)
  | T_conn of conn

type t = {
  config : config;
  persist : Persist.t option;
  nshards : int;
  metrics : Metrics.t;
  ev : Evloop.t;
  by_token : (int, ep_target) Hashtbl.t;  (** evloop thread only *)
  mutable next_token : int;  (** evloop thread only *)
  mutable nconns : int;  (** wire connections; evloop thread only *)
  bound : addr list;
  metrics_port : int option;
  registry : (int, session) Hashtbl.t;  (** all live sessions; [rmu] *)
  detached : (int, session) Hashtbl.t;  (** restored, unattached; [rmu] *)
  mutable next_sid : int;
  rmu : Mutex.t;
  actions : action Queue.t;
  amu : Mutex.t;
  mutable stop_requested : bool;  (** [rmu] *)
  mutable drain_started : bool;  (** evloop thread only *)
  shards : shard array;
  pool : Pool.t;
  live_total : int Atomic.t;
      (** sum of every session's [lw_seen] — the gauge's source *)
  mutable shards_stop : bool;  (** written under every shard's [shmu] *)
  mutable shard_runner : Thread.t option;
  mutable ev_thread : Thread.t option;
  sweep_every : float;
      (** seconds between janitor sweeps on the event loop; 0 when no
          duty (idle timeout, pin detector, journal sink) is on *)
  mutable next_sweep : float;  (** evloop thread only *)
  journal_out : out_channel option;
      (** JSONL sink; written by the event loop's sweeps and the final
          drain in {!stop} (which joins the event loop first) *)
  journal_wall_off : float;
      (** wall-clock seconds minus monotonic seconds at startup, to
          stamp journal events with wall time at drain *)
}

let bound_addrs t = t.bound
let metrics t = t.metrics
let metrics_port t = t.metrics_port
let event_backend t = Evloop.backend_name t.ev

let stopping t =
  Mutex.lock t.rmu;
  let s = t.stop_requested in
  Mutex.unlock t.rmu;
  s

let post t action =
  Mutex.lock t.amu;
  Queue.push action t.actions;
  Mutex.unlock t.amu;
  Evloop.wakeup t.ev

(* ------------------------------------------------------------------ *)
(* Frame egress: encode under the connection's output lock, let the
   event loop write.  Callable from any thread; errors latch [out_dead]
   so a dead peer cannot wedge a shard.

   [~direct:true] is for a shard answering its session: when nothing is
   queued ahead of the frame it writes the frame itself, non-blocking,
   and hands the event loop only what the socket did not take.  A sync
   or verdict then reaches the client without waking the event loop's
   thread, which on a small box may sit on the other CPU.  The write
   happens under [out_mu] with [out_dead] clear, and [close_conn] sets
   [out_dead] under [out_mu] before closing the fd, so it never lands on
   a closed (or reused) descriptor.  The event loop's own sends queue:
   a refusal or a [Bye] relies on the flush that closes the
   connection. *)

let send ?(direct = false) t conn frame =
  Mutex.lock conn.out_mu;
  let flush =
    if conn.out_dead then false
    else begin
      Buffer.clear conn.enc_out;
      Wire.encode ~scratch:conn.enc_scratch conn.enc_out frame;
      Obs.Counter.incr t.metrics.frames_out;
      let enc = Buffer.contents conn.enc_out in
      let enqueue off =
        Queue.push enc conn.outq;
        if Queue.length conn.outq = 1 then conn.outoff <- off;
        if conn.flush_queued then false
        else begin
          conn.flush_queued <- true;
          true
        end
      in
      if not (direct && Queue.is_empty conn.outq && not conn.flush_queued)
      then enqueue 0
      else
        let len = String.length enc in
        match Unix.write_substring conn.fd enc 0 len with
        | n when n = len -> false
        | n -> enqueue n
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            enqueue 0
        | exception (Unix.Unix_error _ | Sys_error _) ->
            (* the event loop's flush sees [out_dead] and abandons *)
            conn.out_dead <- true;
            conn.flush_queued <- true;
            true
    end
  in
  Mutex.unlock conn.out_mu;
  if flush then post t (A_flush conn)

(* ------------------------------------------------------------------ *)
(* Shards: the checking side. *)

(* Seconds on the monotonic clock.  Every use is a duration — idle
   timeout, pin detection and fencing, session age and idle time — so
   an NTP step of the wall clock cannot fence a healthy session or keep
   a stalled one; the journal keeps its own wall offset for display. *)
let now () = float_of_int (Obs.Clock.now_ns ()) *. 1e-9

let sp_server_feed = Obs.Trace.intern "server/feed"

(* The one renderer: live verdicts, snapshot poisoning and WAL-replay
   poisoning all go through it — byte-identity of counterexamples across
   restarts depends on that. *)
let render_parts level v =
  let anomaly = Option.map Anomaly.name (Report.classify v) in
  let rendered =
    Format.asprintf "%s violation%s: %a"
      (Checker.level_name level)
      (match anomaly with Some a -> Printf.sprintf " [%s]" a | None -> "")
      Checker.pp_violation v
  in
  (anomaly, rendered)

let low_water capacity = Stdlib.max 1 (capacity / 4)

(* Make the session's shard service it; a no-op if it is already queued
   (the shard re-checks the item queue before going idle). *)
let schedule s =
  let sh = s.shard in
  Mutex.lock sh.shmu;
  if not s.on_runq then begin
    s.on_runq <- true;
    Queue.push s sh.runq;
    Condition.signal sh.shcv
  end;
  Mutex.unlock sh.shmu

let wal_warned = Atomic.make false

let wal_append t s record =
  match t.persist with
  | None -> ()
  | Some p -> (
      match Persist.append p ~shard:s.shard_ix record with
      | bytes -> Obs.Counter.add t.metrics.wal_bytes bytes
      | exception (Unix.Unix_error _ | Sys_error _) ->
          if not (Atomic.exchange wal_warned true) then
            prerr_endline
              "mtc-serve: WAL append failed; continuing without durability")

let wal_close_record t s = wal_append t s (Wal.R_close { sid = s.sid })

(* Live-words accounting: each session tracks its last-sampled
   {!Online.live_words} and the delta flows into one process-wide
   aggregate.  The estimate is O(1); it is sampled on open, at each sync
   and after each compaction.  Readers on other threads (session stats,
   the pin detector) use the per-session copy because only the owning
   shard may touch its checker. *)
let publish_live t delta =
  if delta <> 0 then begin
    let total = Atomic.fetch_and_add t.live_total delta + delta in
    Obs.Gauge.set t.metrics.live_words total
  end

let refresh_live t s online =
  let lw = Online.live_words online in
  let d = lw - s.lw_seen in
  s.lw_seen <- lw;
  publish_live t d

let drop_live t s =
  let d = -s.lw_seen in
  s.lw_seen <- 0;
  publish_live t d

(* Terminal state: drop the session from every table, and nudge the
   event loop if its connection was waiting on it (paused reader, or a
   draining connection whose last session this was). *)
let finish t s =
  drop_live t s;
  Mutex.lock s.smu;
  s.finished <- true;
  let ep = s.ep in
  s.ep <- None;
  let was_paused = s.throttled in
  s.throttled <- false;
  Mutex.unlock s.smu;
  Mutex.lock t.rmu;
  Hashtbl.remove t.registry s.sid;
  Hashtbl.remove t.detached s.sid;
  Mutex.unlock t.rmu;
  match ep with
  | None -> ()
  | Some conn ->
      Mutex.lock conn.cmu;
      Hashtbl.remove conn.sessions s.sid;
      Hashtbl.replace conn.closed_sids s.sid ();
      let empty = Hashtbl.length conn.sessions = 0 in
      Mutex.unlock conn.cmu;
      if was_paused then post t (A_unpause (conn, s));
      if empty then post t (A_conn_done conn)

(* One transaction processed: its latency since [t0] and the minor-heap
   words it allocated since [w0]. *)
let note_feed (m : Metrics.t) t0 w0 =
  let words = int_of_float (Gc.minor_words () -. w0) in
  let ns = Obs.Clock.now_ns () - t0 in
  Obs.Counter.incr m.txns_fed;
  Obs.Histogram.observe m.feed_ns ns;
  Obs.Histogram.observe m.feed_words words

(* Drain everything currently queued for [s]; runs on [s.shard] only, so
   per-session processing is single-threaded and FIFO even though many
   sessions progress in parallel on different shards. *)
let process_session t s =
  let m = t.metrics in
  let rec loop () =
    Mutex.lock s.smu;
    if s.finished then Mutex.unlock s.smu (* stale run-queue entry *)
    else if s.abandoned then begin
      (* connection is gone: log the close, then disappear *)
      Mutex.unlock s.smu;
      wal_close_record t s;
      finish t s
    end
    else if s.queued = 0 then Mutex.unlock s.smu (* idle until rescheduled *)
    else begin
      let item = Queue.pop s.queue in
      s.queued <- s.queued - 1;
      let ep = s.ep in
      let resume =
        s.throttled && s.queued <= low_water t.config.queue_capacity
      in
      if resume then s.throttled <- false;
      Mutex.unlock s.smu;
      let send_ep frame =
        match ep with Some c -> send ~direct:true t c frame | None -> ()
      in
      if resume then begin
        Obs.Journal.emit Obs.Journal.Throttle_off ~a:s.sid ~b:0 ~c:0;
        send_ep (Wire.Resume { sid = s.sid });
        match ep with Some c -> post t (A_unpause (c, s)) | None -> ()
      end;
      if t.config.drain_delay > 0.0 then Unix.sleepf t.config.drain_delay;
      match item with
      | I_open ->
          wal_append t s (Wal.R_open { sid = s.sid; settings = s.settings });
          (* the ack below hands the client a resumable sid: put the
             open record in the kernel before saying so, or a server
             kill mid-burst (no drain barrier yet) would forget the
             session ever existed *)
          (match t.persist with
          | Some p -> Persist.flush p ~shard:s.shard_ix
          | None -> ());
          (match s.checker with
          | S_live online -> refresh_live t s online
          | S_poisoned _ -> ());
          send_ep (Wire.Session_opened { sid = s.sid });
          loop ()
      | I_resume ->
          Obs.Journal.emit Obs.Journal.Session_resume ~a:s.sid ~b:s.last_seq
            ~c:0;
          send_ep
            (Wire.Session_resumed { sid = s.sid; last_seq = s.last_seq });
          loop ()
      | I_feed (seq, txn) ->
          (* With durability on, a feed at-or-below the logged high water
             is a replay duplicate (client resuming): drop it instead of
             tripping the checker's id-reuse defence. *)
          if t.persist <> None && seq <= s.last_seq then loop ()
          else begin
            wal_append t s (Wal.R_feed { sid = s.sid; seq; txn });
            if seq > s.last_seq then s.last_seq <- seq;
            s.feeds <- s.feeds + 1;
            let sh = s.shard in
            sh.feeds_since_snap <- sh.feeds_since_snap + 1;
            (if
               t.config.snapshot_every > 0
               && t.persist <> None
               && sh.feeds_since_snap >= t.config.snapshot_every
             then begin
               sh.feeds_since_snap <- 0;
               Mutex.lock sh.shmu;
               sh.snap_req <- true;
               Mutex.unlock sh.shmu
             end);
            match s.checker with
            | S_poisoned { anomaly; rendered } ->
                (* poisoned: same counterexample, forever *)
                send_ep
                  (Wire.Verdict
                     {
                       sid = s.sid;
                       seq;
                       verdict = Wire.V_violation { anomaly; rendered };
                     });
                loop ()
            | S_live online -> (
                let w0 = Gc.minor_words () in
                let g0 = Online.gc_runs online in
                let r0 = Online.gc_reclaimed_words online in
                (* the auto policy may compact inside [add_txn]; diffing
                   the checker's counters attributes the pause and the
                   reclaim to this feed *)
                let note_gc () =
                  if Online.gc_runs online > g0 then begin
                    let pause = Online.gc_last_ns online in
                    let reclaimed = Online.gc_reclaimed_words online - r0 in
                    Obs.Counter.incr m.gc_runs;
                    Obs.Counter.add m.gc_reclaimed_words reclaimed;
                    Obs.Gauge.set m.gc_last_reclaimed reclaimed;
                    Obs.Histogram.observe m.gc_ns pause;
                    Obs.Journal.emit Obs.Journal.Gc_compact ~a:s.sid ~b:pause
                      ~c:reclaimed;
                    refresh_live t s online
                  end
                in
                let sp0 = Obs.Trace.enter () in
                let t0 = Obs.Clock.now_ns () in
                match Online.add_txn online txn with
                | Online.Ok_so_far ->
                    Obs.Trace.exit sp_server_feed sp0;
                    note_gc ();
                    note_feed m t0 w0;
                    loop ()
                | Online.Violation v ->
                    Obs.Trace.exit sp_server_feed sp0;
                    note_gc ();
                    let anomaly, rendered = render_parts s.settings.level v in
                    s.checker <- S_poisoned { anomaly; rendered };
                    Obs.Journal.emit Obs.Journal.Poison ~a:s.sid ~b:0 ~c:0;
                    drop_live t s;
                    note_feed m t0 w0;
                    Obs.Counter.incr m.violations;
                    send_ep
                      (Wire.Verdict
                         {
                           sid = s.sid;
                           seq;
                           verdict = Wire.V_violation { anomaly; rendered };
                         });
                    loop ()
                | exception Invalid_argument msg ->
                    (* id reuse / SSER order: session-fatal misuse *)
                    Mutex.lock s.smu;
                    s.closing <- true;
                    Mutex.unlock s.smu;
                    wal_close_record t s;
                    Obs.Counter.incr m.protocol_errors;
                    Obs.Journal.emit Obs.Journal.Session_close ~a:s.sid
                      ~b:(Wire.close_reason_code (Wire.R_protocol msg))
                      ~c:0;
                    send_ep
                      (Wire.Session_closed
                         { sid = s.sid; reason = Wire.R_protocol msg });
                    Obs.Counter.incr m.sessions_closed;
                    finish t s)
          end
      | I_sync seq ->
          Obs.Counter.incr m.syncs;
          (* a [V_ok] ack promises the accepted prefix: group-commit it
             to the kernel before saying so ([Batch] mode also fsyncs,
             so the ack survives an OS crash, not just a server kill) *)
          (match t.persist with
          | Some p -> Persist.barrier p ~shard:s.shard_ix
          | None -> ());
          let verdict =
            match s.checker with
            | S_poisoned { anomaly; rendered } ->
                Wire.V_violation { anomaly; rendered }
            | S_live online ->
                refresh_live t s online;
                Wire.V_ok (Online.txns_seen online)
          in
          send_ep (Wire.Verdict { sid = s.sid; seq; verdict });
          loop ()
      | I_close reason ->
          wal_close_record t s;
          Obs.Journal.emit Obs.Journal.Session_close ~a:s.sid
            ~b:(Wire.close_reason_code reason) ~c:0;
          send_ep (Wire.Session_closed { sid = s.sid; reason });
          Obs.Counter.incr m.sessions_closed;
          finish t s
    end
  in
  loop ()

(* Per-shard checkpoint, on the shard's own domain: its sessions are
   quiescent (this domain is the only one that mutates them), so the
   checkpoint is a consistent cut; items still queued in memory land in
   the *new* WAL generation as they are processed. *)
let do_checkpoint t sh =
  match t.persist with
  | None -> ()
  | Some p ->
      Mutex.lock t.rmu;
      let next_sid = t.next_sid in
      let entries =
        Hashtbl.fold
          (fun sid s acc ->
            if sid mod t.nshards = sh.ix && not s.finished then
              {
                Wal.sid;
                last_seq = s.last_seq;
                state =
                  (match s.checker with
                  | S_live online -> Wal.Live online
                  | S_poisoned { anomaly; rendered } ->
                      Wal.Poisoned
                        { settings = s.settings; anomaly; rendered });
              }
              :: acc
            else acc)
          t.registry []
      in
      Mutex.unlock t.rmu;
      (match Persist.checkpoint p ~shard:sh.ix ~next_sid entries with
      | () ->
          Obs.Counter.incr t.metrics.snapshots;
          Obs.Journal.emit Obs.Journal.Snapshot ~a:sh.ix
            ~b:(List.length entries) ~c:0
      | exception (Unix.Unix_error _ | Sys_error _) ->
          if not (Atomic.exchange wal_warned true) then
            prerr_endline "mtc-serve: checkpoint failed; continuing");
      sh.feeds_since_snap <- 0

let rec shard_loop t sh =
  Mutex.lock sh.shmu;
  while Queue.is_empty sh.runq && not t.shards_stop && not sh.snap_req do
    Condition.wait sh.shcv sh.shmu
  done;
  if sh.snap_req then begin
    sh.snap_req <- false;
    Mutex.unlock sh.shmu;
    do_checkpoint t sh;
    shard_loop t sh
  end
  else if Queue.is_empty sh.runq then Mutex.unlock sh.shmu (* stop, drained *)
  else begin
    let s = Queue.pop sh.runq in
    s.on_runq <- false;
    Mutex.unlock sh.shmu;
    process_session t s;
    (* drain barrier: this session's ingress queue is empty — group-
       commit everything its burst appended in one write(2) *)
    (match t.persist with
    | Some p -> Persist.flush p ~shard:sh.ix
    | None -> ());
    shard_loop t sh
  end

let checkpoint t =
  Array.iter
    (fun sh ->
      Mutex.lock sh.shmu;
      sh.snap_req <- true;
      Condition.signal sh.shcv;
      Mutex.unlock sh.shmu)
    t.shards

(* ------------------------------------------------------------------ *)
(* Session bookkeeping for the event loop's frame handlers and sweeps. *)

let session_alive s = not (s.closing || s.abandoned || s.finished)

(* Every registered session, snapshotted under [rmu]. *)
let registered t =
  Mutex.lock t.rmu;
  let ss = Hashtbl.fold (fun _ s acc -> s :: acc) t.registry [] in
  Mutex.unlock t.rmu;
  ss

(* Capacity-exempt enqueue for [I_close]/[I_open]/[I_resume]: at most
   one extra item, and the callers (drain, sweeps, open, resume) must
   never block or pause on it. *)
let force_enqueue s item =
  Mutex.lock s.smu;
  let pushed =
    if session_alive s then begin
      (match item with I_close _ -> s.closing <- true | _ -> ());
      Queue.push item s.queue;
      s.queued <- s.queued + 1;
      true
    end
    else false
  in
  Mutex.unlock s.smu;
  if pushed then schedule s

let sessions_snapshot conn =
  Mutex.lock conn.cmu;
  let ss = Hashtbl.fold (fun _ s acc -> s :: acc) conn.sessions [] in
  Mutex.unlock conn.cmu;
  ss

let find_session conn sid =
  Mutex.lock conn.cmu;
  let s = Hashtbl.find_opt conn.sessions sid in
  Mutex.unlock conn.cmu;
  match s with Some s when session_alive s -> Some s | _ -> None

(* A frame for a session that existed here but is closed or closing: the
   client has a [Session_closed] in flight (or already delivered), so
   answering with an unknown-session [Error] would only be misattributed
   by the single-threaded client to whatever it asks next. *)
let session_was_here conn sid =
  Mutex.lock conn.cmu;
  let r = Hashtbl.mem conn.closed_sids sid || Hashtbl.mem conn.sessions sid in
  Mutex.unlock conn.cmu;
  r

(* ------------------------------------------------------------------ *)
(* Event-loop side: everything below runs on the evloop thread unless
   noted. *)

let set_read_interest t conn on =
  if (not conn.gone) && conn.read_on <> on then begin
    conn.read_on <- on;
    Evloop.modify t.ev conn.fd ~token:conn.token ~read:on
      ~write:conn.want_write
  end

let set_write_interest t conn on =
  if (not conn.gone) && conn.want_write <> on then begin
    conn.want_write <- on;
    Evloop.modify t.ev conn.fd ~token:conn.token ~read:conn.read_on ~write:on
  end

let close_conn t conn =
  if not conn.gone then begin
    conn.gone <- true;
    Evloop.remove t.ev conn.fd ~token:conn.token;
    Hashtbl.remove t.by_token conn.token;
    if not conn.http then begin
      t.nconns <- t.nconns - 1;
      Obs.Gauge.set t.metrics.open_conns t.nconns
    end;
    Mutex.lock conn.out_mu;
    conn.out_dead <- true;
    Mutex.unlock conn.out_mu;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Mid-frame disconnect or post-handshake garbage: abandon this
   connection (and only this connection); its sessions vanish without a
   goodbye, exactly like the threaded server's non-drain teardown. *)
let abandon_conn t conn =
  List.iter
    (fun s ->
      Mutex.lock s.smu;
      s.abandoned <- true;
      s.ep <- None;
      Mutex.unlock s.smu;
      schedule s)
    (sessions_snapshot conn);
  close_conn t conn

(* Flush the output queue as far as the socket allows.  Leaves write
   interest set iff bytes remain. *)
let flush_conn t conn =
  if not conn.gone then begin
    Mutex.lock conn.out_mu;
    conn.flush_queued <- false;
    let rec go () =
      if Queue.is_empty conn.outq then `Drained
      else begin
        let head = Queue.peek conn.outq in
        let len = String.length head - conn.outoff in
        match Unix.write_substring conn.fd head conn.outoff len with
        | n when n = len ->
            ignore (Queue.pop conn.outq);
            conn.outoff <- 0;
            go ()
        | n ->
            conn.outoff <- conn.outoff + n;
            `Blocked
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            `Blocked
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception (Unix.Unix_error _ | Sys_error _) -> `Dead
      end
    in
    let r = if conn.out_dead then `Dead else go () in
    if r = `Dead then conn.out_dead <- true;
    Mutex.unlock conn.out_mu;
    match r with
    | `Drained ->
        set_write_interest t conn false;
        if conn.cstate = C_flush_close then close_conn t conn
    | `Blocked -> set_write_interest t conn true
    | `Dead -> abandon_conn t conn
  end

(* Handshake refusal: answer, then flush-and-close. *)
let fail_conn t conn code msg =
  Obs.Counter.incr t.metrics.protocol_errors;
  send t conn (Wire.Error { code; msg });
  conn.cstate <- C_flush_close;
  set_read_interest t conn false

let finish_drain t conn =
  send t conn Wire.Bye;
  conn.cstate <- C_flush_close

(* Clean close (client EOF / [Bye] / server shutdown): stop reading, let
   every session's shard finish what was already queued, then [Bye]. *)
let start_drain t conn ~reason =
  if conn.cstate = C_ready || conn.cstate = C_hello then begin
    conn.cstate <- C_draining;
    set_read_interest t conn false;
    match sessions_snapshot conn with
    | [] -> finish_drain t conn
    | ss -> List.iter (fun s -> force_enqueue s (I_close reason)) ss
  end

let on_eof t conn =
  if conn.cstate = C_hello then close_conn t conn (* never handshook *)
  else if conn.paused_on <> None then conn.eof_seen <- true
  else if conn.inlen > 0 && not conn.draining then begin
    (* EOF mid-frame: a truncated stream, not a clean goodbye *)
    Obs.Counter.incr t.metrics.protocol_errors;
    abandon_conn t conn
  end
  else
    start_drain t conn
      ~reason:(if conn.draining then Wire.R_shutdown else Wire.R_requested)

(* ------------------------------------------------------------------ *)
(* Frame dispatch. *)

(* A session homed on shard [sid mod nshards]: a new one, or one
   restored from its checkpoint and log. *)
let make_session t ~sid ~settings ~checker ~last_seq ~ep =
  {
    sid;
    settings;
    checker;
    last_seq;
    ep;
    shard_ix = sid mod t.nshards;
    shard = t.shards.(sid mod t.nshards);
    queue = Queue.create ();
    queued = 0;
    throttled = false;
    closing = false;
    abandoned = false;
    on_runq = false;
    finished = false;
    smu = Mutex.create ();
    last_activity = now ();
    lw_seen = 0;
    opened_at = now ();
    feeds = 0;
    pin_frontier = 0;
    pin_since = now ();
    pinned = false;
  }

let open_session t conn settings =
  Mutex.lock t.rmu;
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  Mutex.unlock t.rmu;
  let s =
    make_session t ~sid ~settings
      ~checker:(S_live (Online.of_settings settings))
      ~last_seq:0 ~ep:(Some conn)
  in
  Mutex.lock t.rmu;
  Hashtbl.replace t.registry sid s;
  Mutex.unlock t.rmu;
  Mutex.lock conn.cmu;
  Hashtbl.replace conn.sessions sid s;
  Mutex.unlock conn.cmu;
  Obs.Counter.incr t.metrics.sessions_opened;
  Obs.Journal.emit Obs.Journal.Session_open ~a:sid ~b:s.shard_ix ~c:0;
  (* the shard WALs the open and then sends [Session_opened], so the sid
     the client learns is already durable *)
  force_enqueue s I_open

(* Bounded enqueue: [`Full] leaves the frame unconsumed — the caller
   pauses the connection's read side until the shard drains the queue. *)
let enqueue_bounded t conn s item =
  Mutex.lock s.smu;
  s.last_activity <- now ();
  if not (session_alive s) then begin
    Mutex.unlock s.smu;
    `Ok (* racing its own close: drop, [Session_closed] is in flight *)
  end
  else if s.queued >= t.config.queue_capacity then begin
    let announce =
      if not s.throttled then begin
        s.throttled <- true;
        Some s.queued
      end
      else None
    in
    Mutex.unlock s.smu;
    (match announce with
    | Some queued ->
        Obs.Counter.incr t.metrics.throttles;
        Obs.Journal.emit Obs.Journal.Throttle_on ~a:s.sid ~b:queued ~c:0;
        send t conn (Wire.Throttle { sid = s.sid; queued })
    | None -> ());
    `Full
  end
  else begin
    Queue.push item s.queue;
    s.queued <- s.queued + 1;
    Obs.Gauge.max_update t.metrics.queue_high_water s.queued;
    Mutex.unlock s.smu;
    schedule s;
    `Ok
  end

let resume_session t conn sid =
  Mutex.lock t.rmu;
  let d = Hashtbl.find_opt t.detached sid in
  (match d with Some _ -> Hashtbl.remove t.detached sid | None -> ());
  Mutex.unlock t.rmu;
  match d with
  | None ->
      send t conn
        (Wire.Error
           {
             code = Wire.err_unknown_session;
             msg = Printf.sprintf "no resumable session %d" sid;
           })
  | Some s ->
      Mutex.lock s.smu;
      s.ep <- Some conn;
      s.last_activity <- now ();
      Mutex.unlock s.smu;
      Mutex.lock conn.cmu;
      Hashtbl.replace conn.sessions sid s;
      Mutex.unlock conn.cmu;
      force_enqueue s I_resume

(* ------------------------------------------------------------------ *)
(* Per-session telemetry.  Reading a live checker's counters from here
   (the evloop or metrics thread) races the owning shard: OCaml makes
   the reads memory-safe, and every field consulted is a plain int, so
   the worst case is a snapshot a feed stale — fine for telemetry,
   never for verdicts. *)

let session_stat s =
  let nowf = now () in
  Mutex.lock s.smu;
  let queued = s.queued
  and last_activity = s.last_activity
  and pinned = s.pinned in
  Mutex.unlock s.smu;
  let poisoned, frontier, watermark =
    match s.checker with
    | S_poisoned _ -> (true, 0, -1)
    | S_live online -> (false, Online.txns_seen online, Online.watermark_pos online)
  in
  {
    Wire.ss_sid = s.sid;
    ss_shard = s.shard_ix;
    ss_level = s.settings.level;
    ss_poisoned = poisoned;
    ss_pinned = pinned;
    ss_frontier = frontier;
    ss_watermark = watermark;
    ss_lag = (if watermark < 0 then 0 else frontier - watermark);
    ss_live_words = Stdlib.max 0 s.lw_seen;
    ss_queued = queued;
    ss_last_seq = s.last_seq;
    ss_feeds = s.feeds;
    ss_age_ms = int_of_float ((nowf -. s.opened_at) *. 1e3);
    ss_idle_ms = Stdlib.max 0 (int_of_float ((nowf -. last_activity) *. 1e3));
  }

let session_stats t =
  List.filter (fun s -> not s.finished) (registered t)
  |> List.map session_stat
  |> List.sort (fun a b -> compare a.Wire.ss_sid b.Wire.ss_sid)

(* The newest journal events, capped so a [Session_stats_reply] stays a
   small frame even with full rings. *)
let reply_events_cap = 256

let journal_events_for_reply () =
  let evs = Obs.Journal.events () in
  let n = List.length evs in
  let evs =
    if n <= reply_events_cap then evs
    else
      List.filteri (fun i _ -> i >= n - reply_events_cap) evs
  in
  let now_ns = Obs.Clock.now_ns () in
  List.map
    (fun (e : Obs.Journal.event) ->
      {
        Wire.je_kind = e.Obs.Journal.j_kind;
        je_age_ms = Stdlib.max 0 ((now_ns - e.Obs.Journal.j_t) / 1_000_000);
        je_dom = e.Obs.Journal.j_dom;
        je_a = e.Obs.Journal.j_a;
        je_b = e.Obs.Journal.j_b;
        je_c = e.Obs.Journal.j_c;
      })
    evs

(* One frame in [C_ready].  [`Paused s] = queue full, frame unconsumed. *)
let handle_ready t conn frame =
  let m = t.metrics in
  let with_session sid item =
    match find_session conn sid with
    | Some s -> (
        match enqueue_bounded t conn s item with
        | `Ok -> `Consumed
        | `Full -> `Paused s)
    | None when session_was_here conn sid -> `Consumed
    | None ->
        send t conn
          (Wire.Error
             {
               code = Wire.err_unknown_session;
               msg = Printf.sprintf "no session %d" sid;
             });
        `Consumed
  in
  match frame with
  | Wire.Open_session { level; num_keys; skew; ts; gc } ->
      (if num_keys < 1 || num_keys > max_keys then
         send t conn
           (Wire.Error
              {
                code = Wire.err_bad_frame;
                msg =
                  Printf.sprintf "num_keys %d out of [1,%d]" num_keys max_keys;
              })
       else
         open_session t conn
           {
             Online.level;
             num_keys;
             skew;
             ts;
             gc = Option.value gc ~default:t.config.gc;
           });
      `Consumed
  | Wire.Feed { sid; seq; txn } -> with_session sid (I_feed (seq, txn))
  | Wire.Sync { sid; seq } -> with_session sid (I_sync seq)
  | Wire.Close_session { sid } -> with_session sid (I_close Wire.R_requested)
  | Wire.Resume_session { sid } ->
      resume_session t conn sid;
      `Consumed
  | Wire.Stats_request ->
      send t conn (Wire.Stats_reply { json = Metrics.to_json m });
      `Consumed
  | Wire.Session_stats_request ->
      send t conn
        (Wire.Session_stats_reply
           {
             sessions = session_stats t;
             events = journal_events_for_reply ();
             journal_dropped = Obs.Journal.dropped ();
           });
      `Consumed
  | Wire.Bye ->
      start_drain t conn ~reason:Wire.R_requested;
      `Consumed
  | Wire.Hello _ | Wire.Welcome _ | Wire.Session_opened _ | Wire.Verdict _
  | Wire.Throttle _ | Wire.Resume _ | Wire.Stats_reply _
  | Wire.Session_closed _ | Wire.Error _ | Wire.Session_resumed _
  | Wire.Session_stats_reply _ ->
      Obs.Counter.incr m.protocol_errors;
      send t conn
        (Wire.Error
           {
             code = Wire.err_bad_frame;
             msg = Printf.sprintf "unexpected %s frame" (Wire.frame_name frame);
           });
      `Consumed

let handle_frame t conn frame =
  match conn.cstate with
  | C_hello -> (
      match frame with
      | Wire.Hello { version } when version = Wire.version ->
          send t conn
            (Wire.Welcome
               { version = Wire.version; server = server_name });
          conn.cstate <- C_ready;
          `Consumed
      | Wire.Hello { version } ->
          fail_conn t conn Wire.err_version
            (Printf.sprintf "protocol version %d unsupported (server speaks %d)"
               version Wire.version);
          `Consumed
      | frame ->
          fail_conn t conn Wire.err_bad_magic
            (Printf.sprintf "expected hello, got %s" (Wire.frame_name frame));
          `Consumed)
  | C_ready -> handle_ready t conn frame
  | C_draining | C_flush_close | C_http ->
      `Consumed (* ingress is over; drop *)

(* Parse as many complete frames as the buffer holds, stopping on
   backpressure.  The unconsumed tail (partial frame, or everything from
   a frame that hit a full queue) shifts to the buffer's front. *)
let parse_frames t conn =
  if conn.inlen > 0 && not conn.gone then begin
    let s = Bytes.sub_string conn.inbuf 0 conn.inlen in
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      if conn.gone || conn.cstate = C_flush_close || conn.cstate = C_draining
      then continue := false
      else
        match Wire.of_string ~pos:!pos s with
        | Ok (frame, next) -> (
            Obs.Counter.incr t.metrics.frames_in;
            match handle_frame t conn frame with
            | `Consumed -> pos := next
            | `Paused sess ->
                conn.paused_on <- Some sess;
                set_read_interest t conn false;
                continue := false)
        | Result.Error ("truncated length prefix" | "truncated frame") ->
            continue := false (* need more bytes *)
        | Result.Error msg ->
            continue := false;
            if conn.cstate = C_hello then fail_conn t conn Wire.err_bad_frame msg
            else begin
              (* garbage mid-stream: abandon, like a broken reader *)
              Obs.Counter.incr t.metrics.protocol_errors;
              abandon_conn t conn
            end
    done;
    if not conn.gone then begin
      let consumed = !pos in
      if consumed > 0 then begin
        Bytes.blit conn.inbuf consumed conn.inbuf 0 (conn.inlen - consumed);
        conn.inlen <- conn.inlen - consumed
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Prometheus exposition: a deliberately minimal HTTP/1.1 responder on a
   loopback socket — enough for a scraper or curl, one request per
   connection, [Connection: close].  A scrape is a connection of the
   event loop like any other: its bytes collect in the input buffer
   until the request head ends, the response goes onto its output
   queue, and the flush closes it.  The body only reads atomics,
   histogram snapshots and session counters, so it never waits on a
   shard. *)

(* Labeled per-session series are emitted directly (the {!Obs.Metrics}
   instruments are label-free), plus the observability substrate's own
   overflow counters so ring drops are visible to a scraper. *)
let session_series stats =
  let b = Buffer.create 512 in
  let family name help value =
    Buffer.add_string b
      (Printf.sprintf "# HELP %s %s\n# TYPE %s gauge\n" name help name);
    List.iter
      (fun (s : Wire.session_stat) ->
        Buffer.add_string b
          (Printf.sprintf "%s{sid=\"%d\"} %d\n" name s.Wire.ss_sid (value s)))
      stats
  in
  family "mtc_session_lag" "Arrivals this session pins against GC"
    (fun s -> s.Wire.ss_lag);
  family "mtc_session_live_words" "Retained-memory estimate (words)"
    (fun s -> s.Wire.ss_live_words);
  family "mtc_session_queue" "Ingress queue depth" (fun s -> s.Wire.ss_queued);
  family "mtc_session_feeds" "Feeds accepted over the session's lifetime"
    (fun s -> s.Wire.ss_feeds);
  family "mtc_session_pinned" "1 when flagged by the horizon-pin detector"
    (fun s -> if s.Wire.ss_pinned then 1 else 0);
  Buffer.contents b

let metrics_body t =
  Printf.sprintf "# TYPE mtc_uptime_seconds gauge\nmtc_uptime_seconds %.3f\n"
    (Metrics.uptime_s t.metrics)
  ^ Obs.Export.prometheus t.metrics.reg
  ^ Obs.Export.prometheus Obs.Metrics.default
  ^ Printf.sprintf
      "# HELP mtc_trace_dropped_spans Spans lost to ring overwrite\n\
       # TYPE mtc_trace_dropped_spans counter\n\
       mtc_trace_dropped_spans %d\n\
       # HELP mtc_journal_dropped_events Journal events lost to ring \
       overwrite\n\
       # TYPE mtc_journal_dropped_events counter\n\
       mtc_journal_dropped_events %d\n"
      (Obs.Trace.dropped ()) (Obs.Journal.dropped ())
  ^ session_series (session_stats t)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

(* Longest request head a scrape may send before it is closed
   unanswered. *)
let head_cap = 8192

(* A scrape's bytes so far ([eof]: no more will come).  A complete head
   (up to the blank line) is answered from its request line; a head cut
   short by EOF or longer than [head_cap] closes the connection. *)
let serve_scrape t conn ~eof =
  let head = Bytes.sub_string conn.inbuf 0 conn.inlen in
  let rec ended i =
    i + 4 <= conn.inlen
    && ((head.[i] = '\r' && String.sub head i 4 = "\r\n\r\n")
       || ended (i + 1))
  in
  if ended 0 then begin
    let request_line = List.hd (String.split_on_char '\r' head) in
    let response =
      match String.split_on_char ' ' request_line with
      | "GET" :: path :: _ when path = "/metrics" || path = "/" ->
          http_response ~status:"200 OK"
            ~content_type:"text/plain; version=0.0.4; charset=utf-8"
            (metrics_body t)
      | "GET" :: _ ->
          http_response ~status:"404 Not Found" ~content_type:"text/plain"
            "not found (try /metrics)\n"
      | _ ->
          http_response ~status:"405 Method Not Allowed"
            ~content_type:"text/plain" "only GET is supported\n"
    in
    Mutex.lock conn.out_mu;
    Queue.push response conn.outq;
    Mutex.unlock conn.out_mu;
    conn.cstate <- C_flush_close;
    set_read_interest t conn false;
    flush_conn t conn
  end
  else if eof || conn.inlen > head_cap then close_conn t conn

let ensure_in conn extra =
  let need = conn.inlen + extra in
  if Bytes.length conn.inbuf < need then begin
    let nb = Bytes.create (Stdlib.max need (2 * Bytes.length conn.inbuf)) in
    Bytes.blit conn.inbuf 0 nb 0 conn.inlen;
    conn.inbuf <- nb
  end

let read_chunk = 65536

let handle_readable t conn =
  if
    (not conn.gone)
    && conn.paused_on = None
    && (conn.cstate = C_http || conn.cstate = C_hello
       || conn.cstate = C_ready)
  then begin
    (* bounded per readiness event; level-triggered epoll re-fires *)
    let rec rd budget =
      if budget = 0 then `Data
      else begin
        ensure_in conn read_chunk;
        match Unix.read conn.fd conn.inbuf conn.inlen read_chunk with
        | 0 -> `Eof
        | n ->
            conn.inlen <- conn.inlen + n;
            if n = read_chunk then rd (budget - 1) else `Data
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            `Data
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> rd budget
        | exception Unix.Unix_error _ -> `Err
      end
    in
    match rd 4 with
    | (`Data | `Eof) as r when conn.http ->
        serve_scrape t conn ~eof:(r = `Eof)
    | `Err when conn.http -> close_conn t conn
    | `Data -> parse_frames t conn
    | `Eof ->
        parse_frames t conn;
        if not conn.gone then on_eof t conn
    | `Err ->
        if conn.draining then start_drain t conn ~reason:Wire.R_shutdown
        else begin
          Obs.Counter.incr t.metrics.protocol_errors;
          abandon_conn t conn
        end
  end

(* ------------------------------------------------------------------ *)
(* Accept path. *)

let fresh_token t =
  let tok = t.next_token in
  t.next_token <- tok + 1;
  tok

let make_conn t fd ~http =
  let token = fresh_token t in
  let conn =
    {
      fd;
      token;
      http;
      inbuf = Bytes.create read_chunk;
      inlen = 0;
      outq = Queue.create ();
      outoff = 0;
      enc_scratch = Buffer.create 256;
      enc_out = Buffer.create 256;
      out_mu = Mutex.create ();
      out_dead = false;
      flush_queued = false;
      want_write = false;
      read_on = true;
      sessions = Hashtbl.create 8;
      closed_sids = Hashtbl.create 8;
      cmu = Mutex.create ();
      cstate = (if http then C_http else C_hello);
      paused_on = None;
      eof_seen = false;
      gone = false;
      draining = false;
    }
  in
  Hashtbl.replace t.by_token token (T_conn conn);
  if not http then begin
    t.nconns <- t.nconns + 1;
    Obs.Counter.incr t.metrics.connections;
    Obs.Gauge.set t.metrics.open_conns t.nconns
  end;
  Evloop.add t.ev fd ~token ~read:true ~write:false

let rec do_accept t lfd addr ~http =
  if not (stopping t) then
    match Unix.accept ~cloexec:true lfd with
    | fd, _peer ->
        Unix.set_nonblock fd;
        (match addr with
        | A_tcp _ -> (
            try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ())
        | A_unix _ -> ());
        make_conn t fd ~http;
        do_accept t lfd addr ~http
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        do_accept t lfd addr ~http
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        () (* fd exhaustion: back off until something closes *)

(* ------------------------------------------------------------------ *)
(* Janitor duties, run on the event loop every [sweep_every] seconds
   when one of them is on. *)

(* JSONL journal drain: monotonic event times are mapped to wall clock
   with the offset captured at startup.  Called from each sweep and once
   more from {!stop} after the event loop has been joined. *)
let drain_journal t =
  match t.journal_out with
  | None -> ()
  | Some oc ->
      (match Obs.Journal.drain () with
      | [] -> ()
      | evs ->
          List.iter
            (fun (e : Obs.Journal.event) ->
              Printf.fprintf oc
                "{\"ts\":%.6f,\"kind\":%S,\"dom\":%d,\"a\":%d,\"b\":%d,\
                 \"c\":%d}\n"
                (t.journal_wall_off +. (float_of_int e.Obs.Journal.j_t /. 1e9))
                (Obs.Journal.kind_name e.Obs.Journal.j_kind)
                e.Obs.Journal.j_dom e.Obs.Journal.j_a e.Obs.Journal.j_b
                e.Obs.Journal.j_c)
            evs;
          Stdlib.flush oc)

(* The horizon-pin detector: a session whose feed frontier has not
   advanced for [pin_warn_after] seconds while it still retains live
   words is pinning memory the watermark GC can never reclaim (its own
   retained prefix, and — for a stream with a stalled internal session —
   an ever-growing window).  Flag it (journal event + gauge), and under
   [Fence_close] force-close it so the memory is released and the
   aggregate live-words bound holds again.  Poisoned sessions are exempt
   (their state was already dropped to the rendered text). *)
let pin_sweep t nowf =
  let warn = t.config.pin_warn_after in
  let pinned_count = ref 0 in
  List.iter
    (fun s ->
      let fence =
        Mutex.lock s.smu;
        let f =
          if not (session_alive s) then false
          else begin
            let progress = s.feeds in
            if progress <> s.pin_frontier then begin
              s.pin_frontier <- progress;
              s.pin_since <- nowf;
              s.pinned <- false;
              false
            end
            else if
              s.pinned
              || (nowf -. s.pin_since > warn && s.lw_seen > 0)
            then begin
              let first = not s.pinned in
              s.pinned <- true;
              incr pinned_count;
              if first then begin
                let stalled_ns =
                  int_of_float ((nowf -. s.pin_since) *. 1e9)
                in
                Obs.Journal.emit Obs.Journal.Pin_warn ~a:s.sid ~b:stalled_ns
                  ~c:s.lw_seen;
                if t.config.pin_fence = Fence_close then begin
                  Obs.Journal.emit Obs.Journal.Pin_fence ~a:s.sid
                    ~b:stalled_ns ~c:0;
                  Obs.Counter.incr t.metrics.pin_fences
                end
              end;
              first && t.config.pin_fence = Fence_close
            end
            else false
          end
        in
        Mutex.unlock s.smu;
        f
      in
      if fence then force_enqueue s (I_close Wire.R_pinned))
    (registered t);
  Obs.Gauge.set t.metrics.horizon_pinned !pinned_count

(* Close the sessions idle past [idle_timeout]. *)
let idle_sweep t nowf =
  let deadline = nowf -. t.config.idle_timeout in
  List.iter
    (fun s ->
      let expire =
        Mutex.lock s.smu;
        (* detached (restored, unresumed) sessions are exempt: their
           whole point is surviving quiet periods *)
        let e =
          session_alive s && s.ep <> None && s.last_activity < deadline
        in
        Mutex.unlock s.smu;
        e
      in
      if expire then force_enqueue s (I_close Wire.R_idle))
    (registered t)

(* Seconds between sweeps: a quarter of the shortest enabled period (or
   a lazy 0.2 s when only the journal sink needs service), within
   [0.01, 0.5]; 0 when no janitor duty is on. *)
let sweep_period config =
  if
    config.idle_timeout > 0.0 || config.pin_warn_after > 0.0
    || config.journal <> None
  then
    let period =
      List.fold_left
        (fun acc p -> if p > 0.0 then Stdlib.min acc p else acc)
        0.8
        [ config.idle_timeout; config.pin_warn_after ]
    in
    Stdlib.min 0.5 (Stdlib.max 0.01 (period /. 4.0))
  else 0.0

let sweep t =
  let nowf = now () in
  if t.config.idle_timeout > 0.0 then idle_sweep t nowf;
  if t.config.pin_warn_after > 0.0 then pin_sweep t nowf;
  drain_journal t;
  t.next_sweep <- nowf +. t.sweep_every

(* ------------------------------------------------------------------ *)
(* The event loop proper. *)

let drain_actions t =
  let rec next () =
    Mutex.lock t.amu;
    let a =
      if Queue.is_empty t.actions then None else Some (Queue.pop t.actions)
    in
    Mutex.unlock t.amu;
    match a with
    | None -> ()
    | Some (A_flush conn) ->
        flush_conn t conn;
        next ()
    | Some (A_unpause (conn, s)) ->
        (match conn.paused_on with
        | Some s' when s' == s ->
            conn.paused_on <- None;
            parse_frames t conn;
            if (not conn.gone) && conn.paused_on = None then
              if conn.eof_seen then begin
                conn.eof_seen <- false;
                on_eof t conn
              end
              else set_read_interest t conn true
        | _ -> ());
        next ()
    | Some (A_conn_done conn) ->
        (if (not conn.gone) && conn.cstate = C_draining then begin
           Mutex.lock conn.cmu;
           let empty = Hashtbl.length conn.sessions = 0 in
           Mutex.unlock conn.cmu;
           if empty then begin
             finish_drain t conn;
             flush_conn t conn
           end
         end);
        next ()
  in
  next ()

(* Server shutdown, evloop side: close the listeners and the scrapes,
   then shut ingress on every wire connection — the receive shutdown
   surfaces as EOF, which funnels into the ordinary drain path. *)
let begin_shutdown t =
  let listeners, conns =
    Hashtbl.fold
      (fun token target (ls, cs) ->
        match target with
        | T_listener (lfd, addr, _) -> ((token, lfd, addr) :: ls, cs)
        | T_conn c -> (ls, c :: cs))
      t.by_token ([], [])
  in
  List.iter
    (fun (token, lfd, addr) ->
      Evloop.remove t.ev lfd ~token;
      Hashtbl.remove t.by_token token;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      match addr with
      | A_unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | A_tcp _ -> ())
    listeners;
  List.iter
    (fun conn ->
      if conn.http then close_conn t conn
      else begin
        conn.draining <- true;
        try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ()
      end)
    conns

(* One thread for every socket and timer: without a janitor duty (or
   once draining) the wait is a plain 200 ms, otherwise it ends at the
   next sweep. *)
let ev_loop t =
  let rec go () =
    let timeout_ms =
      if t.sweep_every = 0.0 || t.drain_started then 200
      else
        Stdlib.max 0
          (int_of_float (Float.ceil ((t.next_sweep -. now ()) *. 1e3)))
    in
    let delivered =
      Evloop.wait t.ev ~timeout_ms
        ~handle:(fun ~token ~readable ~writable ->
          match Hashtbl.find_opt t.by_token token with
          | None -> () (* closed earlier in this batch *)
          | Some (T_listener (lfd, addr, http)) ->
              if readable then do_accept t lfd addr ~http
          | Some (T_conn conn) ->
              if readable then handle_readable t conn;
              if writable && not conn.gone then flush_conn t conn)
    in
    if delivered > 0 then Obs.Counter.incr t.metrics.epoll_wakeups;
    drain_actions t;
    if stopping t then begin
      if not t.drain_started then begin
        t.drain_started <- true;
        begin_shutdown t;
        drain_actions t
      end;
      if t.nconns > 0 then go () (* drains in flight *)
    end
    else begin
      if t.sweep_every > 0.0 && now () >= t.next_sweep then sweep t;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Listeners and lifecycle. *)

let bind_addr = function
  | A_unix path ->
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 1024;
      (sock, A_unix path)
  | A_tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (inet, port));
      Unix.listen sock 1024;
      let bound_port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (sock, A_tcp (host, bound_port))

(* An fsync slower than this is journalled as a stall (a=0: the hook is
   shared across shards, so the event is unattributed). *)
let wal_stall_ns = 5_000_000

let start config =
  if config.listen = [] then invalid_arg "Server.start: no listen addresses";
  (* The journal is always on while a server runs: its events are rare
     (throttle flips, compactions, opens/closes, pin warnings — never
     per-feed), so the cost is nil and the history is there when an
     operator asks for it.  The module-level default stays disabled so
     library users keep the zero-cost path. *)
  Obs.Journal.enable ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> () (* not on this platform *));
  let nshards =
    if config.shards > 0 then config.shards else Pool.default_size ()
  in
  let metrics = Metrics.create () in
  let sweep_every = sweep_period config in
  (* Restore before binding: a client connecting right after bind must
     be able to resume anything the old incarnation logged. *)
  let persist, restored, next_sid0 =
    match config.wal_dir with
    | None -> (None, [], 1)
    | Some dir -> (
        match
          Persist.open_dir
            ~on_fsync:(fun ns ->
              Obs.Counter.incr metrics.wal_fsyncs;
              if ns > wal_stall_ns then
                Obs.Journal.emit Obs.Journal.Wal_fsync_stall ~a:0 ~b:ns ~c:0)
            ~dir ~nshards ~sync:config.wal_sync
            ~render:(fun ~level v -> render_parts level v)
            ()
        with
        | Ok (p, restored, next_sid, stats) ->
            Obs.Counter.add metrics.replay_frames stats.Persist.rs_frames;
            Obs.Gauge.set metrics.replay_ms
              (int_of_float (Float.round stats.Persist.rs_ms));
            (Some p, restored, next_sid)
        | Error msg -> failwith (Printf.sprintf "%s: %s" dir msg))
  in
  let listeners = List.map bind_addr config.listen in
  let scrape_listener =
    Option.map
      (fun port -> bind_addr (A_tcp ("127.0.0.1", port)))
      config.metrics_port
  in
  let shards =
    Array.init nshards (fun ix ->
        {
          ix;
          runq = Queue.create ();
          shmu = Mutex.create ();
          shcv = Condition.create ();
          snap_req = false;
          feeds_since_snap = 0;
        })
  in
  let t =
    {
      config;
      persist;
      nshards;
      metrics;
      ev = Evloop.create ();
      by_token = Hashtbl.create 4096;
      next_token = 0;
      nconns = 0;
      bound = List.map snd listeners;
      metrics_port =
        (match scrape_listener with
        | Some (_, A_tcp (_, port)) -> Some port
        | _ -> None);
      registry = Hashtbl.create 256;
      detached = Hashtbl.create 256;
      next_sid = next_sid0;
      rmu = Mutex.create ();
      actions = Queue.create ();
      amu = Mutex.create ();
      stop_requested = false;
      drain_started = false;
      shards;
      pool = Pool.create ~size:nshards ();
      live_total = Atomic.make 0;
      shards_stop = false;
      shard_runner = None;
      ev_thread = None;
      sweep_every;
      next_sweep = now () +. sweep_every;
      journal_out =
        Option.map
          (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
          config.journal;
      journal_wall_off =
        Unix.gettimeofday () -. (float_of_int (Obs.Clock.now_ns ()) /. 1e9);
    }
  in
  (* Restored sessions wait detached until a [Resume_session] claims
     them (or the final checkpoint carries them forward).  No shard runs
     yet, so sampling a live checker's words here races with nothing. *)
  List.iter
    (fun (e : Wal.entry) ->
      let s =
        make_session t ~sid:e.sid ~settings:(Wal.settings e.state)
          ~checker:
            (match e.state with
            | Wal.Live online -> S_live online
            | Wal.Poisoned { anomaly; rendered; _ } ->
                S_poisoned { anomaly; rendered })
          ~last_seq:e.last_seq ~ep:None
      in
      (match e.state with
      | Wal.Live online -> refresh_live t s online
      | Wal.Poisoned _ -> ());
      Hashtbl.replace t.registry s.sid s;
      Hashtbl.replace t.detached s.sid s)
    restored;
  (* The shard loops occupy the whole pool for the server's lifetime; a
     coordinator systhread participates as the pool's submitting thread
     (so [nshards] loops really run on [nshards] domains). *)
  t.shard_runner <-
    Some
      (Thread.create
         (fun () ->
           Pool.run t.pool
             (List.init nshards (fun i () -> shard_loop t shards.(i))))
         ());
  (* Register the listeners and hand everything to the event loop. *)
  let register ~http (lfd, addr) =
    Unix.set_nonblock lfd;
    let token = fresh_token t in
    Hashtbl.replace t.by_token token (T_listener (lfd, addr, http));
    Evloop.add t.ev lfd ~token ~read:true ~write:false
  in
  List.iter (register ~http:false) listeners;
  Option.iter (register ~http:true) scrape_listener;
  t.ev_thread <- Some (Thread.create ev_loop t);
  t

(* Final checkpoint, after every domain has stopped: single-threaded, so
   touching all shards' sessions from here is safe. *)
let final_persist t =
  match t.persist with
  | None -> ()
  | Some p ->
      (try
         for shard = 0 to t.nshards - 1 do
           do_checkpoint t t.shards.(shard)
         done
       with Unix.Unix_error _ | Sys_error _ -> ());
      Persist.close p

let stop t =
  Mutex.lock t.rmu;
  let already = t.stop_requested in
  t.stop_requested <- true;
  Mutex.unlock t.rmu;
  if not already then begin
    Evloop.wakeup t.ev;
    (* The event loop closes the listeners and scrapes, drains every
       connection (sessions get [Session_closed], then [Bye]) and exits
       once none remain. *)
    Option.iter Thread.join t.ev_thread;
    (* Every session is finished, so the run queues are empty: stop the
       shard loops and the pool. *)
    Array.iter
      (fun sh ->
        Mutex.lock sh.shmu;
        t.shards_stop <- true;
        Condition.broadcast sh.shcv;
        Mutex.unlock sh.shmu)
      t.shards;
    Option.iter Thread.join t.shard_runner;
    Pool.shutdown t.pool;
    final_persist t;
    (* One last drain so close events from the shutdown itself land in
       the sink; safe — the event loop (the only other drainer) is
       joined. *)
    drain_journal t;
    Option.iter close_out t.journal_out;
    Evloop.close t.ev
  end

let run ?(on_signal = [ Sys.sigterm; Sys.sigint ]) ?on_ready config =
  let t = start config in
  Option.iter (fun f -> f t) on_ready;
  let requested = Atomic.make false in
  let hup = Atomic.make false in
  List.iter
    (fun s ->
      try
        Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set requested true))
      with Invalid_argument _ | Sys_error _ -> ())
    on_signal;
  (if t.persist <> None then
     try
       Sys.set_signal Sys.sighup
         (Sys.Signal_handle (fun _ -> Atomic.set hup true))
     with Invalid_argument _ | Sys_error _ -> ());
  while not (Atomic.get requested) do
    Thread.delay 0.2;
    if Atomic.exchange hup false then checkpoint t
  done;
  stop t
