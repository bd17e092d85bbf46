(* Tests for the checking service: wire codec round-trips and decode
   totality, and end-to-end client/server runs over real Unix-domain and
   TCP sockets — verdict agreement with the batch checker, poisoned
   sessions, backpressure, idle timeout, mid-frame disconnects and
   graceful shutdown. *)

let qtest = QCheck_alcotest.to_alcotest
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Wire codec. *)

let txn_gen =
  QCheck2.Gen.(
    let* id = int_range 1 1_000_000 in
    let* session = int_range 1 64 in
    let* status = oneofl [ Txn.Committed; Txn.Aborted ] in
    let* start_ts = int_range (-1000) 1_000_000 in
    let* commit_ts = int_range (-1000) 1_000_000 in
    let* ops =
      list_size (int_range 0 8)
        (let* k = int_range 0 1000 in
         let* v = int_range (-5) 1_000_000_000 in
         let* w = bool in
         return (if w then Op.Write (k, v) else Op.Read (k, v)))
    in
    return (Txn.make ~id ~session ~status ~start_ts ~commit_ts ops))

let verdict_gen =
  QCheck2.Gen.(
    oneof
      [
        (let* n = int_range 0 1_000_000 in
         return (Wire.V_ok n));
        (let* anomaly = option (string_size (int_range 0 20)) in
         let* rendered = string_size (int_range 0 200) in
         return (Wire.V_violation { anomaly; rendered }));
      ])

let reason_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ Wire.R_requested; Wire.R_idle; Wire.R_shutdown; Wire.R_pinned ];
        (let* m = string_size (int_range 0 40) in
         return (Wire.R_protocol m));
      ])

let session_stat_gen =
  QCheck2.Gen.(
    let* ss_sid = int_range 0 100_000 in
    let* ss_shard = int_range 0 64 in
    let* ss_level = oneofl [ Checker.SSER; Checker.SER; Checker.SI ] in
    let* ss_poisoned = bool in
    let* ss_pinned = bool in
    let* ss_frontier = int_range 0 1_000_000 in
    let* ss_watermark = int_range (-1) 1_000_000 in
    let* ss_lag = int_range 0 1_000_000 in
    let* ss_live_words = int_range 0 100_000_000 in
    let* ss_queued = int_range 0 10_000 in
    let* ss_last_seq = int_range 0 1_000_000 in
    let* ss_feeds = int_range 0 1_000_000 in
    let* ss_age_ms = int_range 0 100_000_000 in
    let* ss_idle_ms = int_range 0 100_000_000 in
    return
      {
        Wire.ss_sid;
        ss_shard;
        ss_level;
        ss_poisoned;
        ss_pinned;
        ss_frontier;
        ss_watermark;
        ss_lag;
        ss_live_words;
        ss_queued;
        ss_last_seq;
        ss_feeds;
        ss_age_ms;
        ss_idle_ms;
      })

let journal_event_gen =
  QCheck2.Gen.(
    let* je_kind =
      oneofl
        [
          Obs.Journal.Throttle_on; Obs.Journal.Throttle_off;
          Obs.Journal.Gc_compact; Obs.Journal.Wal_fsync_stall;
          Obs.Journal.Snapshot; Obs.Journal.Session_open;
          Obs.Journal.Session_close; Obs.Journal.Session_resume;
          Obs.Journal.Poison; Obs.Journal.Pin_warn; Obs.Journal.Pin_fence;
        ]
    in
    let* je_age_ms = int_range 0 100_000_000 in
    let* je_dom = int_range 0 128 in
    let* je_a = int_range 0 100_000 in
    let* je_b = int_range 0 1_000_000_000 in
    let* je_c = int_range 0 1_000_000_000 in
    return { Wire.je_kind; je_age_ms; je_dom; je_a; je_b; je_c })

let frame_gen =
  QCheck2.Gen.(
    let sid = int_range 0 100_000 in
    let seq = int_range 0 100_000 in
    oneof
      [
        (let* version = int_range 0 1000 in
         return (Wire.Hello { version }));
        (let* version = int_range 0 1000 in
         let* server = string_size (int_range 0 30) in
         return (Wire.Welcome { version; server }));
        (let* level = oneofl [ Checker.SSER; Checker.SER; Checker.SI ] in
         let* num_keys = int_range 1 100_000 in
         let* skew = int_range (-100) 100 in
         let* ts = oneofl [ Ts.Ignore; Ts.Trust; Ts.Verify ] in
         let* gc =
           oneofl
             [ None; Some Online.Gc_off; Some Online.Gc_auto;
               Some (Online.Gc_words 4096) ]
         in
         return (Wire.Open_session { level; num_keys; skew; ts; gc }));
        (let* sid = sid in
         return (Wire.Session_opened { sid }));
        (let* sid = sid in
         let* seq = seq in
         let* txn = txn_gen in
         return (Wire.Feed { sid; seq; txn }));
        (let* sid = sid in
         let* seq = seq in
         let* verdict = verdict_gen in
         return (Wire.Verdict { sid; seq; verdict }));
        (let* sid = sid in
         let* seq = seq in
         return (Wire.Sync { sid; seq }));
        (let* sid = sid in
         let* queued = int_range 0 10_000 in
         return (Wire.Throttle { sid; queued }));
        (let* sid = sid in
         return (Wire.Resume { sid }));
        return Wire.Stats_request;
        (let* json = string_size (int_range 0 100) in
         return (Wire.Stats_reply { json }));
        (let* sid = sid in
         return (Wire.Close_session { sid }));
        (let* sid = sid in
         let* reason = reason_gen in
         return (Wire.Session_closed { sid; reason }));
        (let* code = int_range 0 100 in
         let* msg = string_size (int_range 0 60) in
         return (Wire.Error { code; msg }));
        return Wire.Session_stats_request;
        (let* sessions = list_size (int_range 0 5) session_stat_gen in
         let* events = list_size (int_range 0 5) journal_event_gen in
         let* journal_dropped = int_range 0 100_000 in
         return
           (Wire.Session_stats_reply { sessions; events; journal_dropped }));
        return Wire.Bye;
      ])

let txn_equal (a : Txn.t) (b : Txn.t) =
  a.Txn.id = b.Txn.id && a.Txn.session = b.Txn.session
  && a.Txn.status = b.Txn.status
  && a.Txn.start_ts = b.Txn.start_ts
  && a.Txn.commit_ts = b.Txn.commit_ts
  && a.Txn.ops = b.Txn.ops

let frame_equal a b =
  match (a, b) with
  | Wire.Feed f, Wire.Feed g ->
      f.sid = g.sid && f.seq = g.seq && txn_equal f.txn g.txn
  | a, b -> a = b

(* P1: every frame survives encode -> decode bit-exactly. *)
let prop_frame_roundtrip =
  QCheck2.Test.make ~name:"wire frame round-trip" ~count:500
    ~print:(fun f -> Wire.frame_name f)
    frame_gen
    (fun frame ->
      match Wire.of_string (Wire.to_string frame) with
      | Ok (decoded, pos) ->
          frame_equal frame decoded && pos = String.length (Wire.to_string frame)
      | Error _ -> false)

(* P2: varints round-trip the whole int range (incl. the min_int
   timestamp sentinels of the initial transaction). *)
let test_varint_extremes () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Binio.add_varint buf n;
      let r = Binio.reader (Buffer.contents buf) in
      checki (Printf.sprintf "varint %d" n) n (Binio.read_varint r);
      checkb "consumed" true (Binio.at_end r))
    [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int; min_int + 1; max_int - 1 ]

(* P3: decoding is total — truncations and random corruption return
   [Error], never raise. *)
let prop_decode_total =
  QCheck2.Test.make ~name:"wire decode never raises" ~count:300
    ~print:(fun (f, cut, _) -> Printf.sprintf "%s cut=%d" (Wire.frame_name f) cut)
    QCheck2.Gen.(
      let* f = frame_gen in
      let* cut = int_range 0 200 in
      let* flips = list_size (int_range 0 3) (pair (int_range 0 500) (int_range 0 255)) in
      return (f, cut, flips))
    (fun (frame, cut, flips) ->
      let s = Wire.to_string frame in
      (* payload truncation through Wire.decode *)
      let payload = String.sub s 4 (String.length s - 4) in
      let truncated = String.sub payload 0 (min cut (String.length payload)) in
      let r1 =
        match Wire.decode truncated with Ok _ | Error _ -> true
      in
      (* byte corruption through Wire.of_string *)
      let b = Bytes.of_string s in
      List.iter
        (fun (pos, v) ->
          if pos < Bytes.length b then Bytes.set b pos (Char.chr v))
        flips;
      let r2 =
        match Wire.of_string (Bytes.to_string b) with Ok _ | Error _ -> true
      in
      r1 && r2)

(* ------------------------------------------------------------------ *)
(* End-to-end over real sockets. *)

let temp_sock =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mtc-test-%d-%d.sock" (Unix.getpid ()) !ctr)

let with_server ?(config = Server.default_config) f =
  let path = temp_sock () in
  let config = { config with Server.listen = [ Server.A_unix path ] } in
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () -> f t (Server.A_unix path))

let with_client addr f =
  match Client.connect addr with
  | Error e -> Alcotest.fail ("connect: " ^ e)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let engine_history ?(txns = 200) ~level ~fault ~seed () =
  let spec =
    Mt_gen.generate { Mt_gen.default with num_txns = txns; num_keys = 10; seed }
  in
  let db = { Db.level; fault; num_keys = 10; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

(* Feeding over the wire must reach the same verdict as the batch
   checker on the same history — clean and faulty engines alike. *)
let test_service_agrees_with_batch () =
  let cases =
    [
      (Isolation.Strict_serializable, Checker.SSER, Fault.No_fault);
      (Isolation.Serializable, Checker.SER, Fault.No_fault);
      (Isolation.Snapshot, Checker.SI, Fault.No_fault);
      (Isolation.Snapshot, Checker.SI, Fault.Lost_update 0.2);
      (Isolation.Snapshot, Checker.SER, Fault.Lost_update 0.2);
      (Isolation.Snapshot, Checker.SI, Fault.Aborted_read 0.2);
    ]
  in
  with_server (fun _ addr ->
      with_client addr (fun c ->
          List.iteri
            (fun i (engine, level, fault) ->
              for seed = 1 to 2 do
                let h = engine_history ~level:engine ~fault ~seed () in
                let batch = Checker.passes (Checker.check level h) in
                let sid =
                  match
                    Client.open_session c ~level ~num_keys:h.History.num_keys ()
                  with
                  | Ok sid -> sid
                  | Error e -> Alcotest.fail ("open: " ^ e)
                in
                match Client.feed_history c ~sid h with
                | Error e -> Alcotest.fail ("feed: " ^ e)
                | Ok (Wire.V_ok n) ->
                    checkb
                      (Printf.sprintf "case %d seed %d: service pass = batch"
                         i seed)
                      batch true;
                    checki "all txns accepted" (History.num_txns h - 1) n
                | Ok (Wire.V_violation _) ->
                    checkb
                      (Printf.sprintf "case %d seed %d: service fail = batch"
                         i seed)
                      batch false
              done)
            cases))

(* SSER with a skewed clock, negotiated at session open. *)
let test_service_sser_skew () =
  let t1 =
    Txn.make ~id:1 ~session:1 ~start_ts:0 ~commit_ts:10
      [ Op.Read (0, 0); Op.Write (0, 1) ]
  in
  let t2 =
    Txn.make ~id:2 ~session:2 ~start_ts:12 ~commit_ts:30 [ Op.Read (0, 0) ]
  in
  let h = History.make ~num_keys:1 ~num_sessions:2 [ t1; t2 ] in
  with_server (fun _ addr ->
      with_client addr (fun c ->
          let feed_with skew =
            let sid =
              match
                Client.open_session c ~level:Checker.SSER ~num_keys:1 ~skew ()
              with
              | Ok sid -> sid
              | Error e -> Alcotest.fail ("open: " ^ e)
            in
            match Client.feed_history c ~sid h with
            | Ok v -> v
            | Error e -> Alcotest.fail ("feed: " ^ e)
          in
          (match feed_with 0 with
          | Wire.V_violation _ -> ()
          | Wire.V_ok _ -> Alcotest.fail "stale read must fail SSER at skew 0");
          match feed_with 5 with
          | Wire.V_ok 2 -> ()
          | _ -> Alcotest.fail "skew 5 must tolerate the drift"))

(* After a violation the session is poisoned: every further feed and
   sync answers with the identical rendered counterexample. *)
let test_service_poisoned_session () =
  with_server (fun _ addr ->
      with_client addr (fun c ->
          let sid =
            match Client.open_session c ~level:Checker.SI ~num_keys:1 () with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          let t1 = Txn.make ~id:1 ~session:1 [ Op.Read (0, 0); Op.Write (0, 1) ] in
          let t2 = Txn.make ~id:2 ~session:2 [ Op.Read (0, 0); Op.Write (0, 2) ] in
          ignore (Client.feed c ~sid t1);
          ignore (Client.feed c ~sid t2);
          let first =
            match Client.sync c ~sid with
            | Ok (Wire.V_violation { rendered; _ }) -> rendered
            | Ok (Wire.V_ok _) -> Alcotest.fail "divergence must be flagged"
            | Error e -> Alcotest.fail ("sync: " ^ e)
          in
          (* keep feeding: same counterexample, byte for byte *)
          let t3 = Txn.make ~id:3 ~session:1 [ Op.Read (0, 1) ] in
          (match Client.feed c ~sid t3 with
          | Ok (Client.Early_verdict (Wire.V_violation { rendered; _ })) ->
              Alcotest.check Alcotest.string "same rendering (feed)" first
                rendered
          | Ok _ -> (
              (* verdict may not have been polled yet; sync must agree *)
              match Client.sync c ~sid with
              | Ok (Wire.V_violation { rendered; _ }) ->
                  Alcotest.check Alcotest.string "same rendering (sync)" first
                    rendered
              | _ -> Alcotest.fail "poisoned session must keep failing")
          | Error e -> Alcotest.fail ("feed: " ^ e));
          match Client.sync c ~sid with
          | Ok (Wire.V_violation { rendered; _ }) ->
              Alcotest.check Alcotest.string "same rendering" first rendered
          | _ -> Alcotest.fail "poisoned session must keep failing"))

(* A client dying mid-frame must not disturb other sessions. *)
let test_service_midframe_disconnect () =
  with_server (fun _ addr ->
      (* connection A: handshake, then half a frame, then vanish *)
      let path = match addr with Server.A_unix p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let bufs = Wire.out_bufs () in
      Wire.write_frame fd bufs (Wire.Hello { version = Wire.version });
      (match Wire.read_frame fd with
      | Ok (Some (Wire.Welcome _)) -> ()
      | _ -> Alcotest.fail "welcome expected");
      Wire.write_frame fd bufs
        (Wire.Open_session
           { level = Checker.SER; num_keys = 4; skew = 0; ts = Ts.Ignore;
             gc = None });
      (match Wire.read_frame fd with
      | Ok (Some (Wire.Session_opened _)) -> ()
      | _ -> Alcotest.fail "session-opened expected");
      (* a torn frame: a length prefix promising 100 bytes, then 3 *)
      ignore (Unix.write fd (Bytes.of_string "\000\000\000\100abc") 0 7);
      Unix.close fd;
      (* connection B still checks fine *)
      with_client addr (fun c ->
          let h =
            engine_history ~level:Isolation.Serializable ~fault:Fault.No_fault
              ~seed:7 ()
          in
          let sid =
            match
              Client.open_session c ~level:Checker.SER
                ~num_keys:h.History.num_keys ()
            with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          match Client.feed_history c ~sid h with
          | Ok (Wire.V_ok _) -> ()
          | Ok (Wire.V_violation _) -> Alcotest.fail "history should pass"
          | Error e -> Alcotest.fail ("feed: " ^ e)))

(* A tiny queue plus an artificially slow worker must provoke the
   advisory throttle frames, and the stream must still verify fully. *)
let test_service_backpressure () =
  let config =
    {
      Server.default_config with
      Server.queue_capacity = 4;
      drain_delay = 0.002;
    }
  in
  with_server ~config (fun t addr ->
      let m = Server.metrics t in
      with_client addr (fun c ->
          let txns =
            List.init 120 (fun i ->
                Txn.make ~id:(i + 1) ~session:1
                  [ Op.Read (0, i); Op.Write (0, i + 1) ])
          in
          let h = History.make ~num_keys:1 ~num_sessions:1 txns in
          let sid =
            match Client.open_session c ~level:Checker.SER ~num_keys:1 () with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          (match Client.feed_history c ~sid h with
          | Ok (Wire.V_ok 120) -> ()
          | Ok _ -> Alcotest.fail "long chain must pass SER"
          | Error e -> Alcotest.fail ("feed: " ^ e));
          checkb "server throttled at least once" true
            (Obs.Counter.get m.throttles >= 1);
          checkb "queue high-water bounded by capacity" true
            (Obs.Gauge.get m.queue_high_water <= 4)))

(* [feed_history ~ack_every:7] syncs after every seventh accepted
   transaction and once more at the end, and reaches the plain feed's
   verdict: every transaction accepted.  The server counts the syncs. *)
let test_service_ack_every () =
  with_server (fun t addr ->
      with_client addr (fun c ->
          let h =
            engine_history ~level:Isolation.Serializable ~fault:Fault.No_fault
              ~seed:7 ()
          in
          let n = History.num_txns h - 1 in
          let sid =
            match Client.open_session c ~level:Checker.SER ~num_keys:10 () with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          (match Client.feed_history ~ack_every:7 c ~sid h with
          | Ok (Wire.V_ok m) -> checki "every transaction accepted" n m
          | Ok (Wire.V_violation _) -> Alcotest.fail "history should pass"
          | Error e -> Alcotest.fail ("feed: " ^ e));
          checki "a sync per seven transactions, then the final one"
            ((n / 7) + 1)
            (Obs.Counter.get (Server.metrics t).syncs)))

(* Sessions idle past the timeout are closed with reason idle. *)
let test_service_idle_timeout () =
  let config = { Server.default_config with Server.idle_timeout = 0.05 } in
  with_server ~config (fun _ addr ->
      with_client addr (fun c ->
          let sid =
            match Client.open_session c ~level:Checker.SER ~num_keys:1 () with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          Thread.delay 0.3;
          match Client.sync c ~sid with
          | Error _ -> (
              match Client.session_closed c ~sid with
              | Some Wire.R_idle -> ()
              | Some _ -> Alcotest.fail "closed for the wrong reason"
              | None -> Alcotest.fail "close reason not recorded")
          | Ok _ ->
              (* the sync squeaked in before the janitor: close must
                 still arrive *)
              Thread.delay 0.3;
              ignore (Client.sync c ~sid);
              checkb "idle close eventually seen" true
                (Client.session_closed c ~sid = Some Wire.R_idle)))

(* A session that feeds once and then stalls while retaining checker
   memory pins the GC horizon: the janitor must flag it — gauge, wire
   telemetry and journal event all naming the sid — without touching the
   session itself under the default [Fence_off]. *)
let test_service_pin_detector () =
  Obs.Journal.clear ();
  let config = { Server.default_config with Server.pin_warn_after = 0.1 } in
  with_server ~config (fun t addr ->
      with_client addr (fun c ->
          let sid =
            match Client.open_session c ~level:Checker.SI ~num_keys:2 () with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          (match
             Client.feed c ~sid (Txn.make ~id:1 ~session:1 [ Op.Write (0, 1) ])
           with
          | Ok Client.Accepted -> ()
          | Ok _ -> Alcotest.fail "unexpected verdict"
          | Error e -> Alcotest.fail ("feed: " ^ e));
          Thread.delay 0.5;
          checki "pinned gauge trips" 1
            (Obs.Gauge.get (Server.metrics t).horizon_pinned);
          (match Client.session_stats c with
          | Error e -> Alcotest.fail ("session stats: " ^ e)
          | Ok (ss, evs, _) ->
              (match
                 List.find_opt (fun s -> s.Wire.ss_sid = sid) ss
               with
              | None -> Alcotest.fail "stalled session missing from telemetry"
              | Some s ->
                  checkb "flagged as pinned" true s.Wire.ss_pinned;
                  checki "its one feed is counted" 1 s.Wire.ss_feeds;
                  checkb "retains live words" true (s.Wire.ss_live_words > 0));
              checkb "pin-warn journal event names the sid" true
                (List.exists
                   (fun e ->
                     e.Wire.je_kind = Obs.Journal.Pin_warn
                     && e.Wire.je_a = sid)
                   evs));
          (* Fence_off: detection only — the session must still answer *)
          match Client.sync c ~sid with
          | Ok (Wire.V_ok 1) -> ()
          | Ok _ -> Alcotest.fail "pinned session's verdict changed"
          | Error e -> Alcotest.fail ("sync: " ^ e)))

(* Under [Fence_close] the pinned session is force-closed with
   [R_pinned] (releasing its retained memory), while a concurrently
   active session on the same connection is untouched. *)
let test_service_pin_fence_close () =
  let config =
    {
      Server.default_config with
      Server.pin_warn_after = 0.1;
      pin_fence = Server.Fence_close;
    }
  in
  with_server ~config (fun t addr ->
      with_client addr (fun c ->
          let open_si () =
            match Client.open_session c ~level:Checker.SI ~num_keys:2 () with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          let stalled = open_si () in
          (match
             Client.feed c ~sid:stalled
               (Txn.make ~id:1 ~session:1 [ Op.Write (0, 1) ])
           with
          | Ok Client.Accepted -> ()
          | Ok _ -> Alcotest.fail "unexpected verdict"
          | Error e -> Alcotest.fail ("feed: " ^ e));
          let active = open_si () in
          (* keep the active session's frontier moving across the fence
             window, so only the stalled one can trip the detector *)
          for i = 1 to 25 do
            (match
               Client.feed c ~sid:active
                 (Txn.make ~id:(i + 1) ~session:2 [ Op.Write (1, i) ])
             with
            | Ok Client.Accepted -> ()
            | Ok _ -> Alcotest.fail "unexpected verdict"
            | Error e -> Alcotest.fail ("feed: " ^ e));
            Thread.delay 0.02
          done;
          (* the active verdict first: receiving it also drains the
             stalled session's earlier [Session_closed] frame *)
          (match Client.sync c ~sid:active with
          | Ok (Wire.V_ok n) -> checki "active session unaffected" 25 n
          | Ok _ -> Alcotest.fail "active session's verdict changed"
          | Error e -> Alcotest.fail ("sync: " ^ e));
          (match Client.session_closed c ~sid:stalled with
          | Some Wire.R_pinned -> ()
          | Some _ -> Alcotest.fail "stalled session closed for wrong reason"
          | None -> Alcotest.fail "stalled session never fenced");
          checkb "fence counter ticked" true
            (Obs.Counter.get (Server.metrics t).pin_fences >= 1)))

(* Graceful shutdown drains what was already queued. *)
let test_service_graceful_drain () =
  let config = { Server.default_config with Server.drain_delay = 0.001 } in
  let path = temp_sock () in
  let config = { config with Server.listen = [ Server.A_unix path ] } in
  let t = Server.start config in
  let c =
    match Client.connect (Server.A_unix path) with
    | Ok c -> c
    | Error e -> Alcotest.fail ("connect: " ^ e)
  in
  let sid =
    match Client.open_session c ~level:Checker.SER ~num_keys:1 () with
    | Ok sid -> sid
    | Error e -> Alcotest.fail ("open: " ^ e)
  in
  let n = 50 in
  List.iteri
    (fun i () ->
      match
        Client.feed c ~sid
          (Txn.make ~id:(i + 1) ~session:1 [ Op.Read (0, i); Op.Write (0, i + 1) ])
      with
      | Ok Client.Accepted -> ()
      | Ok _ -> Alcotest.fail "unexpected verdict"
      | Error e -> Alcotest.fail ("feed: " ^ e))
    (List.init n (fun _ -> ()));
  (* stop while the slow worker still has items queued: they must all be
     processed before the server says goodbye *)
  Server.stop t;
  checki "every queued transaction was drained" n
    (Obs.Counter.get (Server.metrics t).txns_fed);
  Client.close c

(* TCP transport (ephemeral port) and the stats frame. *)
let test_service_tcp_and_stats () =
  let config =
    {
      Server.default_config with
      Server.listen = [ Server.A_tcp ("127.0.0.1", 0) ];
    }
  in
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      let addr =
        match Server.bound_addrs t with
        | [ a ] -> a
        | _ -> Alcotest.fail "one bound address expected"
      in
      (match addr with
      | Server.A_tcp (_, p) -> checkb "ephemeral port resolved" true (p > 0)
      | _ -> Alcotest.fail "tcp address expected");
      with_client addr (fun c ->
          let h =
            engine_history ~level:Isolation.Serializable ~fault:Fault.No_fault
              ~seed:3 ()
          in
          let sid =
            match
              Client.open_session c ~level:Checker.SER
                ~num_keys:h.History.num_keys ()
            with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          (match Client.feed_history c ~sid h with
          | Ok (Wire.V_ok _) -> ()
          | _ -> Alcotest.fail "clean history must pass over TCP");
          match Client.stats c with
          | Ok json ->
              checkb "stats mention txns_fed" true
                (contains ~sub:"\"txns_fed\"" json)
          | Error e -> Alcotest.fail ("stats: " ^ e)))

(* One HTTP exchange with the metrics port: [parts] written 0.2 s
   apart, then everything the server sends until it closes — [""] when
   it closes unanswered.  A server that neither answers nor closes
   within 5 s fails the test instead of hanging the suite. *)
let http_exchange port parts =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (try
         List.iteri
           (fun i part ->
             if i > 0 then Thread.delay 0.2;
             ignore (Unix.write_substring fd part 0 (String.length part)))
           parts
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            Alcotest.fail "the server neither answered nor closed in 5 s"
      in
      drain ();
      Buffer.contents buf)

let http_get port path =
  http_exchange port
    [
      Printf.sprintf
        "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
        path;
    ]

let scrape_port t =
  match Server.metrics_port t with
  | Some p -> p
  | None -> Alcotest.fail "metrics listener did not start"

let with_scrape_server f =
  with_server
    ~config:{ Server.default_config with Server.metrics_port = Some 0 }
    (fun t _ -> f t (scrape_port t))

(* The --metrics-port HTTP endpoint serves Prometheus text for the
   server's own registry plus the process-wide one, and 404s elsewhere. *)

let test_service_http_metrics () =
  let config = { Server.default_config with Server.metrics_port = Some 0 } in
  with_server ~config (fun t addr ->
      let port = scrape_port t in
      (* traffic first, so the scraped counters are live *)
      with_client addr (fun c ->
          let h =
            engine_history ~txns:50 ~level:Isolation.Serializable
              ~fault:Fault.No_fault ~seed:5 ()
          in
          let sid =
            match
              Client.open_session c ~level:Checker.SER
                ~num_keys:h.History.num_keys ()
            with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          match Client.feed_history c ~sid h with
          | Ok (Wire.V_ok _) -> ()
          | _ -> Alcotest.fail "clean history must pass");
      let response = http_get port "/metrics" in
      checkb "HTTP 200" true (contains ~sub:"HTTP/1.1 200" response);
      checkb "prometheus content type" true
        (contains ~sub:"text/plain; version=0.0.4" response);
      checkb "uptime gauge exposed" true
        (contains ~sub:"mtc_uptime_seconds" response);
      (let fed =
         String.split_on_char '\n' response
         |> List.find_map (fun l ->
                let p = "mtc_txns_fed_total " in
                let pl = String.length p in
                if String.length l > pl && String.sub l 0 pl = p then
                  int_of_string_opt (String.sub l pl (String.length l - pl))
                else None)
       in
       match fed with
       | Some n -> checkb "txns counter live" true (n > 0)
       | None -> Alcotest.fail "mtc_txns_fed_total not exposed");
      checkb "feed histogram exposed" true
        (contains ~sub:"mtc_feed_ns_bucket{le=" response);
      checkb "typed exposition" true (contains ~sub:"# TYPE" response);
      let not_found = http_get port "/nope" in
      checkb "404 elsewhere" true (contains ~sub:"HTTP/1.1 404" not_found))

(* A peer that connects to the metrics port and sends nothing.  The
   returned function closes it; a watchdog closes it [after] seconds in
   whatever happens, so a server that waits on the peer fails a
   deadline instead of hanging the suite. *)
let silent_peer port ~after =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let mu = Mutex.create () and closed = ref false in
  let release () =
    Mutex.protect mu (fun () ->
        if not !closed then begin
          closed := true;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end)
  in
  let deadline = Unix.gettimeofday () +. after in
  let watchdog =
    Thread.create
      (fun () ->
        while
          (not (Mutex.protect mu (fun () -> !closed)))
          && Unix.gettimeofday () < deadline
        do
          Thread.delay 0.02
        done;
        release ())
      ()
  in
  fun () ->
    release ();
    Thread.join watchdog

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* A peer that holds a scrape connection open without a request does
   not stop other scrapes from being answered. *)
let test_scrape_beside_silent_peer () =
  with_scrape_server (fun _ port ->
      let release = silent_peer port ~after:1.5 in
      Fun.protect ~finally:release (fun () ->
          let response, dt = timed (fun () -> http_get port "/metrics") in
          checkb "HTTP 200" true (contains ~sub:"HTTP/1.1 200" response);
          checkb (Printf.sprintf "answered in %.2f s (< 1 s)" dt) true
            (dt < 1.0)))

(* Nor does it hold up shutdown. *)
let test_stop_beside_silent_peer () =
  with_scrape_server (fun t port ->
      let release = silent_peer port ~after:2.5 in
      Fun.protect ~finally:release (fun () ->
          Thread.delay 0.2 (* let the server take the connection *);
          let (), dt = timed (fun () -> Server.stop t) in
          checkb (Printf.sprintf "stopped in %.2f s (< 2 s)" dt) true
            (dt < 2.0)))

(* The request head is read until its blank line, however the peer
   splits it. *)
let test_scrape_split_request () =
  with_scrape_server (fun _ port ->
      let response =
        http_exchange port
          [ "GET /met"; "rics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" ]
      in
      checkb "HTTP 200" true (contains ~sub:"HTTP/1.1 200" response);
      checkb "the exposition follows" true
        (contains ~sub:"mtc_txns_fed_total" response))

let test_scrape_post_refused () =
  with_scrape_server (fun _ port ->
      let response =
        http_exchange port
          [
            "POST /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\
             Content-Length: 0\r\n\r\n";
          ]
      in
      checkb "HTTP 405" true
        (contains ~sub:"HTTP/1.1 405 Method Not Allowed" response))

(* A head that never ends is cut off unanswered once it passes the cap,
   and the port keeps answering. *)
let test_scrape_head_cap () =
  with_scrape_server (fun _ port ->
      let response =
        http_exchange port
          [ "GET /metrics HTTP/1.1\r\nX-Pad: " ^ String.make 16384 'a' ]
      in
      Alcotest.check Alcotest.string "closed unanswered" "" response;
      checkb "the next scrape gets 200" true
        (contains ~sub:"HTTP/1.1 200" (http_get port "/metrics")))

(* Speaking the wrong protocol version is refused at the handshake. *)
let test_service_version_mismatch () =
  with_server (fun _ addr ->
      let path = match addr with Server.A_unix p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let bufs = Wire.out_bufs () in
      Wire.write_frame fd bufs (Wire.Hello { version = Wire.version + 1 });
      (match Wire.read_frame fd with
      | Ok (Some (Wire.Error { code; _ })) ->
          checki "version error code" Wire.err_version code
      | _ -> Alcotest.fail "version mismatch must be refused");
      Unix.close fd)

(* Session-fatal misuse (transaction id reuse) closes only that session. *)
let test_service_id_reuse_closes_session () =
  with_server (fun _ addr ->
      with_client addr (fun c ->
          let sid =
            match Client.open_session c ~level:Checker.SER ~num_keys:1 () with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          let t1 = Txn.make ~id:1 ~session:1 [ Op.Read (0, 0) ] in
          ignore (Client.feed c ~sid t1);
          ignore (Client.feed c ~sid t1);
          (match Client.sync c ~sid with
          | Error e ->
              checkb "protocol reason surfaced" true
                (contains ~sub:"protocol" e)
          | Ok _ -> (
              (* the close may race the sync; it must surface eventually *)
              Thread.delay 0.1;
              match Client.sync c ~sid with
              | Error _ -> ()
              | Ok _ -> Alcotest.fail "id reuse must close the session"));
          (* the connection itself is fine: open another session *)
          match Client.open_session c ~level:Checker.SER ~num_keys:1 () with
          | Ok sid2 -> checkb "fresh session" true (sid2 <> sid)
          | Error e -> Alcotest.fail ("re-open: " ^ e)))

(* A key outside the session's [num_keys] is session-fatal misuse: the
   session closes with a protocol reason that names the key. *)
let test_service_key_out_of_range_closes_session () =
  with_server (fun _ addr ->
      with_client addr (fun c ->
          let sid =
            match Client.open_session c ~level:Checker.SER ~num_keys:1 () with
            | Ok sid -> sid
            | Error e -> Alcotest.fail ("open: " ^ e)
          in
          ignore
            (Client.feed c ~sid
               (Txn.make ~id:1 ~session:1 [ Op.Read (0, 0); Op.Write (5, 1) ]));
          let closed e =
            checkb ("protocol close naming the key: " ^ e) true
              (contains ~sub:"protocol" e
              && contains ~sub:"T1 accesses key 5 out of [0,1)" e)
          in
          match Client.sync c ~sid with
          | Error e -> closed e
          | Ok _ -> (
              (* the close may race the sync; it must surface eventually *)
              Thread.delay 0.1;
              match Client.sync c ~sid with
              | Error e -> closed e
              | Ok _ -> Alcotest.fail "an out-of-range key must close it")))

(* [Wire] owns the close-reason codes: the journal's payload word for a
   close is the byte its [Session_closed] frame carries, and the name
   `mtc stats --events` prints for it is the reason's. *)
let test_close_reason_codes () =
  List.iter
    (fun (reason, name) ->
      let frame = Wire.to_string (Wire.Session_closed { sid = 1; reason }) in
      (* length prefix, tag, one-byte sid, then the reason byte *)
      checki ("wire byte of " ^ name) (Char.code frame.[6])
        (Wire.close_reason_code reason);
      Alcotest.check Alcotest.string "name" name
        (Wire.close_reason_name (Wire.close_reason_code reason)))
    [
      (Wire.R_requested, "requested"); (Wire.R_idle, "idle");
      (Wire.R_shutdown, "shutdown"); (Wire.R_protocol "x", "protocol");
      (Wire.R_pinned, "pinned");
    ];
  Alcotest.check Alcotest.string "unknown code" "9" (Wire.close_reason_name 9)

let suite =
  [
    qtest prop_frame_roundtrip;
    ("varint extremes round-trip", `Quick, test_varint_extremes);
    qtest prop_decode_total;
    ("service verdict = batch verdict", `Quick, test_service_agrees_with_batch);
    ("SSER skew negotiated at open", `Quick, test_service_sser_skew);
    ("poisoned session repeats its counterexample", `Quick,
     test_service_poisoned_session);
    ("mid-frame disconnect isolated", `Quick, test_service_midframe_disconnect);
    ("backpressure throttles and recovers", `Quick, test_service_backpressure);
    ("feed_history ~ack_every syncs as it streams", `Quick,
     test_service_ack_every);
    ("idle sessions closed", `Quick, test_service_idle_timeout);
    ("horizon-pin detector flags stalled sessions", `Quick,
     test_service_pin_detector);
    ("pin fence closes only the pinned session", `Quick,
     test_service_pin_fence_close);
    ("graceful shutdown drains queues", `Quick, test_service_graceful_drain);
    ("tcp transport + stats frame", `Quick, test_service_tcp_and_stats);
    ("http /metrics endpoint", `Quick, test_service_http_metrics);
    ("scrape answered beside a silent peer", `Quick,
     test_scrape_beside_silent_peer);
    ("stop returns beside a silent scrape peer", `Quick,
     test_stop_beside_silent_peer);
    ("scrape request split across writes", `Quick, test_scrape_split_request);
    ("scrape POST refused with 405", `Quick, test_scrape_post_refused);
    ("scrape head over the cap closed", `Quick, test_scrape_head_cap);
    ("version mismatch refused", `Quick, test_service_version_mismatch);
    ("txn id reuse closes only the session", `Quick,
     test_service_id_reuse_closes_session);
    ("out-of-range key closes the session", `Quick,
     test_service_key_out_of_range_closes_session);
    ("close-reason codes: journal word = wire byte", `Quick,
     test_close_reason_codes);
  ]
