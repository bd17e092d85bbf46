(* The feed workloads: one `mtc serve` child, driven over a unix socket
   by this process's single client thread on a single connection, plus
   the traced in-process replay of the same stream through Online. *)

type config = {
  stream : Inputs.corpus;  (** each session's stream; [txns] is its length *)
  sessions : int;  (** closed-loop sessions, each on its own stream *)
  level : Checker.level;
  gc : bool;  (** server default --gc-watermark auto *)
  wal : bool;  (** --wal-dir with --wal-sync batch *)
  rate : float;  (** open-loop transactions per second *)
  min_gc_runs : int;  (** compactions each closed-loop session must see *)
}

let server_args cfg =
  [ "--jobs"; "1" ]
  @ (if cfg.gc then [ "--gc-watermark"; "auto" ] else [])
  @ if cfg.wal then [ "--wal-dir"; "wal"; "--wal-sync"; "batch" ] else []

let describe = function
  | Ok (Wire.V_ok n) -> Printf.sprintf "V_ok %d" n
  | Ok (Wire.V_violation { rendered; _ }) -> "V_violation " ^ rendered
  | Error e -> e

(* Every session streams its own input, drawn from a seed derived from
   the run's.  How many compactions a stream triggers depends on its
   content (6 or 7 per 100k transactions on feed-ser-gc), so sessions of
   one shared stream would make a whole run land in one mode or the
   other; distinct streams average the modes within each run. *)
let sub_seed seed k = (seed * 16) + k

type inputs = {
  closed : Txn.t array list;
  open_loop : Txn.t array;  (** [rate * duration] transactions *)
}

let inputs cfg ~seed ~duration =
  {
    closed = List.init cfg.sessions (fun k -> Inputs.stream cfg.stream ~seed:(sub_seed seed k));
    open_loop =
      Inputs.stream
        { cfg.stream with Inputs.txns = Stdlib.max 1 (int_of_float (cfg.rate *. duration)) }
        ~seed:(sub_seed seed cfg.sessions);
  }

(* Set-up is generating every input of the run and starting the server
   up to its first accepted connection, [reps] times; the last server
   stays up. *)
let setup cfg ~mtc ~seed ~duration ~reps =
  let once () =
    Proc.rm_rf "wal";
    let t0 = Measure.now () in
    let inputs = inputs cfg ~seed ~duration in
    let srv = Serve.start ~mtc (server_args cfg) in
    (Measure.now () -. t0, inputs, srv)
  in
  let rec go acc k =
    let s, inputs, srv = once () in
    if k <= 1 then (List.rev (s :: acc), inputs, srv)
    else (
      ignore (Serve.stop srv);
      go (s :: acc) (k - 1))
  in
  go [] reps

let open_session tally (srv : Serve.t) cfg =
  match Client.open_session srv.client ~level:cfg.level ~num_keys:cfg.stream.Inputs.keys () with
  | Ok sid -> Some sid
  | Error e ->
      Measure.expect tally false "opening a session: %s" e;
      None

let close_session tally (srv : Serve.t) ~sid ~fed verdict =
  Measure.expect tally
    (match verdict with Ok (Wire.V_ok n) -> n = fed | _ -> false)
    "session verdict %s, want V_ok %d" (describe verdict) fed;
  match Client.close_session srv.client ~sid with
  | Ok () -> ()
  | Error e -> Measure.expect tally false "closing a session: %s" e

(* ------------------------------------------------------------------ *)
(* Closed loop: stream each input as fast as the server accepts it. *)

type session = {
  wall_s : float;  (** first send to the final V_ok *)
  cpu_s : float;  (** server user + system time over [wall_s] *)
  client_feed_ns : int;  (** Σ Client.feed time; 0 unless timed *)
  throttles : int;
  d : string -> float;  (** a Stats-frame counter's change over the session *)
  server_feed_s : float;  (** Σ feed_ns over the session: time in the checker *)
  live_words : float;  (** the server's estimate at the final V_ok *)
}

let closed_session tally (srv : Serve.t) cfg ~timed stream =
  let c = srv.client in
  let n = Array.length stream in
  Option.map
    (fun sid ->
      let st0 = Serve.stats srv in
      let cpu0 = Proc.cpu_s srv.pid and thr0 = Client.throttles c in
      let feed_ns = ref 0 in
      let t0 = Measure.now () in
      let rec go i =
        if i = n then Client.sync c ~sid
        else
          let a = if timed then Obs.Clock.now_ns () else 0 in
          match Client.feed ~seq:(i + 1) c ~sid stream.(i) with
          | Ok Client.Accepted ->
              if timed then feed_ns := !feed_ns + Obs.Clock.now_ns () - a;
              go (i + 1)
          | Ok (Client.Early_verdict v) -> Ok v
          | Error _ as e -> e
      in
      let verdict = go 0 in
      let wall_s = Measure.now () -. t0 in
      let cpu_s = Proc.cpu_s srv.pid -. cpu0 in
      let st1 = Serve.stats srv in
      close_session tally srv ~sid ~fed:n verdict;
      let s =
        {
          wall_s;
          cpu_s;
          client_feed_ns = !feed_ns;
          throttles = Client.throttles c - thr0;
          d = (fun k -> Serve.stat st1 k -. Serve.stat st0 k);
          server_feed_s = (Serve.feed_ns_sum st1 -. Serve.feed_ns_sum st0) /. 1e9;
          live_words = Serve.stat st1 "live_words";
        }
      in
      if cfg.gc then
        Measure.expect tally
          (s.d "gc_runs" >= float_of_int cfg.min_gc_runs)
          "a closed-loop session compacted %.0f times, want at least %d"
          (s.d "gc_runs") cfg.min_gc_runs;
      s)
    (open_session tally srv cfg)

let closed_loop tally srv cfg ~timed streams =
  List.filter_map (closed_session tally srv cfg ~timed) streams

(* ------------------------------------------------------------------ *)
(* Open loop: feeds on a fixed schedule, a sync probe every 20 ms. *)

type probes = {
  lags_ms : float list;  (** probe answered minus probe due *)
  late_max_ms : float;  (** how far the generator ran behind schedule *)
}

let probe_every = 0.020

let open_loop tally (srv : Serve.t) cfg stream ~duration =
  let c = srv.client in
  let lags = ref [] and late_max = ref 0.0 in
  (match open_session tally srv cfg with
  | None -> ()
  | Some sid ->
      let n = Array.length stream in
      let t0 = Measure.now () +. 0.001 in
      let t_end = t0 +. duration in
      let fed = ref 0 and probe = ref 1 and alive = ref true in
      let wait_until due =
        let d = due -. Measure.now () in
        if d > 0.0 then Unix.sleepf d;
        late_max := Float.max !late_max (Measure.now () -. due)
      in
      let probe_due () = t0 +. (float_of_int !probe *. probe_every) in
      while !alive && (!fed < n || probe_due () <= t_end) do
        let feed_due = t0 +. (float_of_int !fed /. cfg.rate) in
        if !fed < n && (feed_due < probe_due () || probe_due () > t_end) then begin
          wait_until feed_due;
          match Client.feed ~seq:(!fed + 1) c ~sid stream.(!fed) with
          | Ok Client.Accepted -> incr fed
          | Ok (Client.Early_verdict v) ->
              alive := false;
              Measure.expect tally false "open loop: %s on a clean stream" (describe (Ok v))
          | Error e ->
              alive := false;
              Measure.expect tally false "open-loop feed: %s" e
        end
        else begin
          let due = probe_due () in
          wait_until due;
          let r = Client.sync c ~sid in
          let lag = Measure.now () -. due in
          incr probe;
          match r with
          | Ok (Wire.V_ok k) when k = !fed ->
              Measure.expect tally true "";
              lags := (lag *. 1000.0) :: !lags
          | r ->
              alive := false;
              Measure.expect tally false "open-loop probe: %s, want V_ok %d" (describe r) !fed
        end
      done;
      close_session tally srv ~sid ~fed:n (Client.sync c ~sid));
  { lags_ms = List.rev !lags; late_max_ms = !late_max *. 1000.0 }

(* ------------------------------------------------------------------ *)
(* Traced replay of the first closed-loop stream through Online, in
   process. *)

let pk_reorders = Obs.Metrics.counter Obs.Metrics.default "mtc_pk_reorders_total"

let online_replay tally cfg txns =
  let n = Array.length txns in
  let gc = if cfg.gc then Online.Gc_auto else Online.Gc_off in
  let level = cfg.level and num_keys = cfg.stream.Inputs.keys in
  let create () = Online.create ~gc ~level ~num_keys () in
  Gc.full_major ();
  let t = create () in
  let lat = Array.make n 0 in
  let pauses = ref [] and violations = ref 0 in
  let pk0 = Obs.Counter.get pk_reorders in
  let w0 = Gc.minor_words () in
  let t0 = Obs.Clock.now_ns () in
  for i = 0 to n - 1 do
    let g = Online.gc_runs t in
    let a = Obs.Clock.now_ns () in
    (match Online.add_txn t txns.(i) with
    | Online.Ok_so_far -> ()
    | Online.Violation _ -> incr violations);
    lat.(i) <- Obs.Clock.now_ns () - a;
    if Online.gc_runs t > g then pauses := Online.gc_last_ns t :: !pauses
  done;
  let wall_ns = Obs.Clock.now_ns () - t0 in
  let words = Gc.minor_words () -. w0 in
  let reorders = Obs.Counter.get pk_reorders - pk0 in
  let st = Online.stats t in
  Measure.expect tally (!violations = 0) "online replay: %d violations on a clean stream" !violations;
  (* timing the calls must not change what the checker computes *)
  let plain = create () in
  Array.iter (fun x -> ignore (Online.add_txn plain x)) txns;
  Measure.expect tally (Online.stats plain = st) "online replay stats differ from a plain replay's";
  Measure.expect tally
    (Online.check_stream ~gc ~level ~num_keys (Array.to_list txns) = Ok n)
    "Online.check_stream does not accept the replayed stream";
  let lat_us = Array.to_list (Array.map (fun ns -> float_of_int ns /. 1000.0) lat) in
  let per_txn x = x /. float_of_int n in
  let pause_ns = List.fold_left ( + ) 0 !pauses in
  Measure.
    [
      single "online.add_txn_p50_us" "us" (percentile 50.0 lat_us);
      single "online.add_txn_p99_us" "us" (percentile 99.0 lat_us);
      single "online.add_txn_max_ms" "ms" (percentile 100.0 lat_us /. 1000.0);
      single "online.alloc_words_per_txn" "words/txn" (per_txn words);
      single "online.edges_per_txn" "edges/txn" (per_txn (float_of_int st.Online.s_edges));
      single "online.gc_runs" "count" (float_of_int st.Online.s_gc_runs);
      single "online.gc_pause_max_ms" "ms"
        (float_of_int (List.fold_left Stdlib.max 0 !pauses) /. 1e6);
      single "online.gc_share_pct" "%" (100.0 *. float_of_int pause_ns /. float_of_int wall_ns);
      single "online.live_words_final" "words" (float_of_int st.Online.s_live_words);
      single "pearce_kelly.reorders_per_ktxn" "count/ktxn"
        (1000.0 *. per_txn (float_of_int reorders));
    ]

(* ------------------------------------------------------------------ *)

type outcome = {
  setup_s : float list;
  sessions : session list;
  probes : probes;
  after_closed : Json.t;  (** Stats frame once the closed loop is done *)
  hwm_kb : int;  (** server peak RSS *)
  inputs : inputs;
}

(* The closed loop takes about half of [seconds], the open loop the
   other half; the [faulty] history's session runs last on the same
   server. *)
let run ~mtc tally cfg ~seed ~seconds ~trace ~faulty =
  let duration = seconds /. 2.0 in
  let setup_s, inputs, srv = setup cfg ~mtc ~seed ~duration ~reps:(if trace then 1 else 3) in
  let sessions = closed_loop tally srv cfg ~timed:trace inputs.closed in
  let after_closed = Serve.stats srv in
  let probes = open_loop tally srv cfg inputs.open_loop ~duration in
  Serve.faulty_session tally srv ~level:cfg.level faulty;
  let hwm_kb = Proc.vm_hwm_kb srv.Serve.pid in
  let u = Serve.stop srv in
  Measure.expect tally (u.Proc.code = 0) "mtc serve exited with code %d" u.Proc.code;
  Proc.rm_rf "wal";
  { setup_s; sessions; probes; after_closed; hwm_kb; inputs }

(* Throughput and CPU are totals over the closed loop's distinct
   streams, not medians of sessions: see [sub_seed]. *)
let end_to_end cfg o =
  let n = float_of_int cfg.stream.Inputs.txns in
  let total f = List.fold_left (fun acc s -> acc +. f s) 0.0 o.sessions in
  let k = float_of_int (List.length o.sessions) in
  Measure.
    [
      of_samples "setup_s" "s" o.setup_s;
      {
        name = "txns_per_s";
        unit = "txn/s";
        value = k *. n /. total (fun s -> s.wall_s);
        samples = List.map (fun s -> n /. s.wall_s) o.sessions;
      };
      {
        name = "cpu_s";
        unit = "s";
        value = total (fun s -> s.cpu_s) /. k;
        samples = List.map (fun s -> s.cpu_s) o.sessions;
      };
      of_samples "verdict_ms" "ms" o.probes.lags_ms;
    ]

(* Reported, never gated: the open-loop tail (its p99 swings too much
   between runs), the generator's health, and the server's peak RSS,
   which moves 15-20% between seeds because the compaction schedule
   depends on the stream. *)
let diagnostics o =
  let lags = o.probes.lags_ms in
  Measure.
    [
      single "program.peak_rss_mb" "MB" (float_of_int o.hwm_kb /. 1024.0);
      single "client.lag_p99_ms" "ms" (percentile 99.0 lags);
      single "client.lag_max_ms" "ms" (percentile 100.0 lags);
      single "client.late_max_ms" "ms" o.probes.late_max_ms;
      single "client.probes" "count" (float_of_int (List.length lags));
    ]

let per_layer tally cfg o =
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 o.sessions in
  let per_session f = Measure.median (List.map f o.sessions) in
  let fed = sum (fun s -> s.d "txns_fed") in
  let ms_of_ns k = Serve.stat o.after_closed k /. 1e6 in
  let us_of_ns k = Serve.stat o.after_closed k /. 1e3 in
  Measure.
    [
      single "client.feed_us_mean" "us"
        (sum (fun s -> float_of_int s.client_feed_ns) /. 1000.0 /. fed);
      single "client.throttles" "count" (per_session (fun s -> float_of_int s.throttles));
      single "server.feed_p50_us" "us" (us_of_ns "feed_ns.p50");
      single "server.feed_p99_us" "us" (us_of_ns "feed_ns.p99");
      single "server.check_share_pct" "%"
        (100.0 *. sum (fun s -> s.server_feed_s) /. sum (fun s -> s.wall_s));
      single "server.wakeups_per_ktxn" "count/ktxn" (1000.0 *. sum (fun s -> s.d "epoll_wakeups") /. fed);
      single "server.queue_high_water" "count" (Serve.stat o.after_closed "queue_high_water");
      single "server.gc_runs" "count" (per_session (fun s -> s.d "gc_runs"));
      single "server.gc_pause_p99_ms" "ms" (ms_of_ns "gc_ns.p99");
      single "server.gc_pause_max_ms" "ms" (ms_of_ns "gc_ns.max");
      single "server.live_words" "words" (per_session (fun s -> s.live_words));
      single "wal.bytes_per_txn" "B/txn" (sum (fun s -> s.d "wal_bytes") /. fed);
      single "wal.fsyncs_per_ktxn" "count/ktxn" (1000.0 *. sum (fun s -> s.d "wal_fsyncs") /. fed);
    ]
  @ diagnostics o
  @ online_replay tally cfg (List.hd o.inputs.closed)
