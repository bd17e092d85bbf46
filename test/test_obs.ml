(* Tests for the observability layer: histogram percentiles against a
   sorted-array oracle, span recording across domains, exporter output
   validity (a small JSON parser for the Chrome trace, a line grammar
   for the Prometheus text), profile aggregation, and the
   zero-allocation guarantee of the disabled tracing path. *)

let qtest = QCheck_alcotest.to_alcotest
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Histogram. *)

(* The log2 histogram's percentile has an exact characterization: the
   bucket it reports is the bucket of the sample a sorted array puts at
   that rank, and the value is that bucket's upper edge clamped to the
   observed max. *)
let prop_percentile_oracle =
  QCheck2.Test.make ~name:"histogram percentile matches sorted-array oracle"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (int_range 0 1_000_000_000))
        (int_range 1 100))
    (fun (samples, p) ->
      let h = Obs.Histogram.create () in
      List.iter (Obs.Histogram.observe h) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank =
        Stdlib.max 1
          (int_of_float (ceil (float_of_int p /. 100.0 *. float_of_int n)))
      in
      let oracle = List.nth sorted (rank - 1) in
      let expected =
        Stdlib.min (List.nth sorted (n - 1))
          (Obs.Histogram.upper_edge (Obs.Histogram.bucket_of oracle))
      in
      Obs.Histogram.percentile h (float_of_int p) = expected)

let test_histogram_empty () =
  let h = Obs.Histogram.create () in
  checki "empty p99" 0 (Obs.Histogram.percentile h 99.0);
  Alcotest.check (Alcotest.float 0.0) "empty mean" 0.0 (Obs.Histogram.mean h)

let test_histogram_snapshot_consistent () =
  (* Concurrent feeders: every snapshot must be internally consistent —
     count equals the bucket sum (a torn read would break it). *)
  let h = Obs.Histogram.create () in
  let feeders =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 10_000 do
              Obs.Histogram.observe h ((i * (d + 1)) land 0xFFFF)
            done))
  in
  for _ = 1 to 100 do
    let s = Obs.Histogram.snapshot h in
    let bucket_sum = Array.fold_left ( + ) 0 s.Obs.Histogram.s_buckets in
    checki "snapshot count = bucket sum" s.Obs.Histogram.s_count bucket_sum
  done;
  List.iter Domain.join feeders;
  checki "final count" 40_000 (Obs.Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Metrics registry. *)

let test_counter_across_domains () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "test_total" in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 25_000 do
              Obs.Counter.incr c
            done))
  in
  List.iter Domain.join workers;
  checki "striped counter sums" 100_000 (Obs.Counter.get c)

let test_registry_idempotent_and_typed () =
  let r = Obs.Metrics.create () in
  let c1 = Obs.Metrics.counter r "mtc_thing_total" in
  let c2 = Obs.Metrics.counter r "mtc_thing_total" in
  Obs.Counter.incr c1;
  checki "same instrument" 1 (Obs.Counter.get c2);
  (match Obs.Metrics.gauge r "mtc_thing_total" with
  | _ -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ());
  (match Obs.Metrics.counter r "bad name" with
  | _ -> Alcotest.fail "invalid name must raise"
  | exception Invalid_argument _ -> ());
  checkb "valid_name accepts" true (Obs.Metrics.valid_name "a_b:c9");
  checkb "valid_name rejects leading digit" false (Obs.Metrics.valid_name "9a")

let test_gauge_max_update () =
  let g = Obs.Gauge.create () in
  Obs.Gauge.max_update g 5;
  Obs.Gauge.max_update g 3;
  checki "high-water keeps max" 5 (Obs.Gauge.get g);
  Obs.Gauge.set g 2;
  checki "set overrides" 2 (Obs.Gauge.get g)

(* ------------------------------------------------------------------ *)
(* Spans. *)

let sp_outer = Obs.Trace.intern "t/outer"
let sp_inner = Obs.Trace.intern "t/inner"

let with_tracing f =
  Obs.Trace.clear ();
  Obs.Trace.enable ();
  Fun.protect ~finally:Obs.Trace.disable f

let test_span_nesting_across_domains () =
  with_tracing (fun () ->
      let jobs = 4 in
      let workers =
        List.init jobs (fun _ ->
            Domain.spawn (fun () ->
                let t_out = Obs.Trace.enter () in
                let t_in = Obs.Trace.enter () in
                ignore (Sys.opaque_identity (Array.make 1000 0));
                Obs.Trace.exit sp_inner t_in;
                Obs.Trace.exit sp_outer t_out))
      in
      List.iter Domain.join workers;
      Obs.Trace.disable ();
      let events = Obs.Trace.events () in
      checki "two spans per domain" (2 * jobs) (List.length events);
      (* globally sorted by start time *)
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            a.Obs.Trace.ev_t0 <= b.Obs.Trace.ev_t0 && sorted rest
        | _ -> true
      in
      checkb "events time-sorted" true (sorted events);
      (* per domain: inner nested inside outer *)
      List.iter
        (fun d ->
          let mine =
            List.filter (fun e -> e.Obs.Trace.ev_dom = d) events
          in
          match
            ( List.find_opt (fun e -> e.Obs.Trace.ev_name = "t/outer") mine,
              List.find_opt (fun e -> e.Obs.Trace.ev_name = "t/inner") mine )
          with
          | Some o, Some i ->
              checkb "inner starts after outer" true
                (o.Obs.Trace.ev_t0 <= i.Obs.Trace.ev_t0);
              checkb "inner ends before outer" true
                (i.Obs.Trace.ev_t0 + i.Obs.Trace.ev_dur
                <= o.Obs.Trace.ev_t0 + o.Obs.Trace.ev_dur)
          | _ -> Alcotest.fail "missing span on a domain")
        (List.sort_uniq compare
           (List.map (fun e -> e.Obs.Trace.ev_dom) events)))

let test_span_disabled_records_nothing () =
  Obs.Trace.clear ();
  Obs.Trace.disable ();
  let t0 = Obs.Trace.enter () in
  Obs.Trace.exit sp_outer t0;
  Obs.Trace.with_span sp_inner (fun () -> ());
  checki "no events when disabled" 0 (List.length (Obs.Trace.events ()))

let test_span_enabled_midflight_discarded () =
  (* A span entered while disabled must not record a garbage duration
     when tracing turns on before it exits. *)
  Obs.Trace.clear ();
  Obs.Trace.disable ();
  let t0 = Obs.Trace.enter () in
  Obs.Trace.enable ();
  Obs.Trace.exit sp_outer t0;
  Obs.Trace.disable ();
  checki "mid-flight span dropped" 0 (List.length (Obs.Trace.events ()))

let test_ring_overwrite_counts_dropped () =
  with_tracing (fun () ->
      let n = (1 lsl 15) + 100 in
      for _ = 1 to n do
        Obs.Trace.instant sp_inner
      done;
      Obs.Trace.disable ();
      checki "latest cap events kept" (1 lsl 15)
        (List.length (Obs.Trace.events ()));
      checki "overflow counted" 100 (Obs.Trace.dropped ()))

(* The acceptance criterion of --profile: with tracing on, the checker's
   phase spans account for (nearly) all of the verification wall time. *)
let test_phase_sum_close_to_wall () =
  let spec =
    Mt_gen.generate
      { Mt_gen.default with num_txns = 2000; num_keys = 200; seed = 11 }
  in
  let db =
    { Db.level = Isolation.Snapshot; fault = Fault.No_fault; num_keys = 200;
      seed = 11 }
  in
  let h = (Scheduler.run ~db ~spec ()).Scheduler.history in
  (* warm up so one-time costs (page faults, lazy init) don't land
     inside the measured run only *)
  ignore (Checker.check_si h);
  with_tracing (fun () ->
      let t0 = Obs.Clock.now_ns () in
      ignore (Sys.opaque_identity (Checker.check_si h));
      let wall = Obs.Clock.now_ns () - t0 in
      Obs.Trace.disable ();
      let sum = Obs.Profile.phase_sum_ns (Obs.Trace.events ()) in
      checkb
        (Printf.sprintf "phase sum %d within wall %d" sum wall)
        true
        (sum <= wall && float_of_int sum >= 0.5 *. float_of_int wall))

(* ------------------------------------------------------------------ *)
(* Profile aggregation over synthetic events. *)

let ev ?(dom = 0) name t0 dur =
  { Obs.Trace.ev_name = name; ev_t0 = t0; ev_dur = dur; ev_dom = dom }

let test_profile_no_double_count () =
  (* parent [0,100) with nested children: only the parent counts toward
     the phase total; a sibling top-level span adds up. *)
  let events =
    [
      ev "infer/deps" 0 100;
      ev "infer/deps/rw" 10 30;
      ev "infer/deps/freeze" 50 40;
      ev "infer/index" 200 50;
      ev ~dom:1 "infer/deps" 0 100; (* other domain: counted separately *)
    ]
  in
  match Obs.Profile.phases events with
  | [ p ] ->
      Alcotest.check Alcotest.string "phase name" "infer" p.Obs.Profile.p_name;
      checki "top-level total" 250 p.Obs.Profile.p_total_ns;
      checki "top-level count" 3 p.Obs.Profile.p_count;
      checki "sub rows include nested" 4 (List.length p.Obs.Profile.p_subs)
  | ps -> Alcotest.failf "expected 1 phase, got %d" (List.length ps)

let test_profile_identical_spans_once () =
  (* double instrumentation: identical intervals must count once *)
  let events = [ ev "check/cycle" 0 50; ev "check/cycle" 0 50 ] in
  match Obs.Profile.phases events with
  | [ p ] -> checki "identical intervals counted once" 50 p.Obs.Profile.p_total_ns
  | _ -> Alcotest.fail "expected 1 phase"

(* ------------------------------------------------------------------ *)
(* Chrome trace JSON: a minimal JSON parser as the schema check. *)

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad_json (Printf.sprintf "%s at %d" m !pos)) in
  let peek () = if !pos < n then s.[!pos] else fail "eof" in
  let advance () = incr pos in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %c" c) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let parse_scalar () =
    match peek () with
    | '"' ->
        advance ();
        let fin = ref false in
        while not !fin do
          match peek () with
          | '"' -> advance (); fin := true
          | '\\' -> advance (); advance ()
          | _ -> advance ()
        done
    | 't' -> pos := !pos + 4
    | 'f' -> pos := !pos + 5
    | 'n' -> pos := !pos + 4
    | _ ->
        let start = !pos in
        while
          !pos < n
          && (match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do
          advance ()
        done;
        if !pos = start then fail "bad scalar"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then advance ()
        else begin
          let fin = ref false in
          while not !fin do
            skip_ws ();
            expect '"';
            pos := !pos - 1;
            parse_scalar ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | ',' -> advance ()
            | '}' -> advance (); fin := true
            | _ -> fail "expected , or }"
          done
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then advance ()
        else begin
          let fin = ref false in
          while not !fin do
            parse_value ();
            skip_ws ();
            match peek () with
            | ',' -> advance ()
            | ']' -> advance (); fin := true
            | _ -> fail "expected , or ]"
          done
        end
    | _ -> parse_scalar ()
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let test_chrome_json_valid () =
  (* names with every character the escaper must handle *)
  let events =
    [
      ev "plain" 1_000 2_000;
      ev "with \"quotes\" and \\backslash" 3_000 10;
      ev "newline\nand tab\tand ctrl\x01" 5_000 0;
    ]
  in
  let json = Obs.Export.chrome_json events in
  (match parse_json json with
  | () -> ()
  | exception Bad_json m -> Alcotest.failf "invalid JSON: %s\n%s" m json);
  checkb "has traceEvents" true
    (String.length json > 15 && String.sub json 0 15 = "{\"traceEvents\":");
  checkb "complete events" true
    (let rec count i acc =
       match String.index_from_opt json i 'X' with
       | Some j -> count (j + 1) (acc + 1)
       | None -> acc
     in
     count 0 0 >= 3)

let test_chrome_json_empty () =
  match parse_json (Obs.Export.chrome_json []) with
  | () -> ()
  | exception Bad_json m -> Alcotest.failf "invalid empty trace: %s" m

(* ------------------------------------------------------------------ *)
(* Prometheus exposition grammar. *)

let is_metric_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let check_prometheus_grammar text =
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      if line <> "" then
        if String.length line >= 2 && String.sub line 0 2 = "# " then begin
          match String.split_on_char ' ' line with
          | "#" :: ("HELP" | "TYPE") :: name :: _ when is_metric_name name -> ()
          | _ -> Alcotest.failf "bad comment line %S" line
        end
        else
          match String.index_opt line ' ' with
          | None -> Alcotest.failf "no value on line %S" line
          | Some i -> (
              let series = String.sub line 0 i in
              let value =
                String.sub line (i + 1) (String.length line - i - 1)
              in
              (match float_of_string_opt value with
              | Some _ -> ()
              | None -> Alcotest.failf "bad value %S on line %S" value line);
              match String.index_opt series '{' with
              | None ->
                  if not (is_metric_name series) then
                    Alcotest.failf "bad metric name %S" series
              | Some j ->
                  if not (is_metric_name (String.sub series 0 j)) then
                    Alcotest.failf "bad metric name in %S" series;
                  if series.[String.length series - 1] <> '}' then
                    Alcotest.failf "unterminated labels in %S" series))
    lines

let test_prometheus_grammar_and_buckets () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r ~help:"a counter with \\ and\nnewline" "t_total" in
  Obs.Counter.add c 7;
  let g = Obs.Metrics.gauge r "t_gauge" in
  Obs.Gauge.set g (-3);
  let h = Obs.Metrics.histogram r ~help:"hist" "t_hist" in
  List.iter (Obs.Histogram.observe h) [ 1; 5; 5; 900; 70_000 ];
  let text = Obs.Export.prometheus r in
  check_prometheus_grammar text;
  (* cumulative buckets end at +Inf = count; _sum and _count present *)
  let lines = String.split_on_char '\n' text in
  let bucket_counts =
    List.filter_map
      (fun l ->
        if String.length l > 14 && String.sub l 0 14 = "t_hist_bucket{" then
          String.index_opt l ' '
          |> Option.map (fun i ->
                 int_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      lines
  in
  checkb "buckets monotone" true
    (let rec mono = function
       | a :: (b :: _ as rest) -> a <= b && mono rest
       | _ -> true
     in
     mono bucket_counts);
  checki "+Inf equals count" 5 (List.nth bucket_counts (List.length bucket_counts - 1));
  checkb "has sum line" true (List.exists (fun l -> String.length l >= 10 && String.sub l 0 10 = "t_hist_sum") lines);
  checkb "has count line" true
    (List.exists (fun l -> l = "t_hist_count 5") lines)

let test_prometheus_service_registry () =
  let m = Metrics.create () in
  Obs.Counter.incr m.connections;
  Obs.Counter.incr m.txns_fed;
  Obs.Histogram.observe m.feed_ns 1234;
  Obs.Histogram.observe m.feed_words 88;
  Obs.Gauge.max_update m.queue_high_water 17;
  let text = Obs.Export.prometheus m.reg in
  check_prometheus_grammar text;
  checkb "has connections counter" true
    (List.exists
       (fun l -> l = "mtc_connections_total 1")
       (String.split_on_char '\n' text))

(* [Metrics.to_json] after [uptime_s], with every instrument set to a
   distinct value the way the server sets it.  The literal is the
   output of the hand-written printf this JSON replaced, so the registry
   walk keeps every key, its order and its number format. *)
let stats_json_state () =
  let m = Metrics.create () in
  let times n c = for _ = 1 to n do Obs.Counter.incr c done in
  times 1 m.connections;
  times 2 m.sessions_opened;
  times 3 m.sessions_closed;
  List.iter
    (fun (ns, words) ->
      Obs.Counter.incr m.txns_fed;
      Obs.Histogram.observe m.feed_ns ns;
      Obs.Histogram.observe m.feed_words words)
    [ (1_500, 40); (90_000, 7); (3, 1_000); (250, 12) ];
  times 5 m.syncs;
  times 6 m.violations;
  times 7 m.frames_in;
  times 8 m.frames_out;
  times 9 m.throttles;
  times 10 m.protocol_errors;
  Obs.Gauge.max_update m.queue_high_water 11;
  Obs.Counter.add m.wal_bytes 12;
  times 13 m.wal_fsyncs;
  times 14 m.snapshots;
  Obs.Counter.add m.replay_frames 15;
  Obs.Gauge.set m.replay_ms (int_of_float (Float.round 16.4));
  Obs.Gauge.set m.open_conns 17;
  times 18 m.epoll_wakeups;
  for i = 1 to 19 do
    Obs.Counter.incr m.gc_runs;
    Obs.Counter.add m.gc_reclaimed_words (100 + i);
    Obs.Gauge.set m.gc_last_reclaimed (100 + i);
    Obs.Histogram.observe m.gc_ns (1_000 * i * i)
  done;
  Obs.Gauge.set m.live_words 22;
  Obs.Gauge.set m.horizon_pinned 23;
  times 24 m.pin_fences;
  m

let after_uptime json =
  let i = String.index json ',' in
  String.sub json i (String.length json - i)

let test_stats_json_from_registry () =
  Alcotest.(check string)
    "stats JSON after uptime_s"
    ",\"connections\":1,\"sessions_opened\":2,\"sessions_closed\":3,\
     \"txns_fed\":4,\"syncs\":5,\"violations\":6,\"frames_in\":7,\
     \"frames_out\":8,\"throttles\":9,\"protocol_errors\":10,\
     \"queue_high_water\":11,\"wal_bytes\":12,\"wal_fsyncs\":13,\
     \"snapshots\":14,\"replay_frames\":15,\"replay_ms\":16,\"open_conns\":17,\
     \"epoll_wakeups\":18,\"gc_runs\":19,\"gc_reclaimed_words\":2090,\
     \"live_words\":22,\"gc_last_reclaimed_words\":119,\"horizon_pinned_sessions\":23,\
     \"pin_fences\":24,\"feed_ns\":{\"count\":4,\"mean\":22938,\
     \"p50\":255,\"p99\":90000,\"max\":90000},\"feed_words\":{\"count\":4,\
     \"mean\":265,\"p50\":15,\"p99\":1000,\"max\":1000},\"gc_ns\":{\"count\":19,\
     \"mean\":130000,\"p50\":131071,\"p99\":361000,\"max\":361000}}"
    (after_uptime (Metrics.to_json (stats_json_state ())))

(* ------------------------------------------------------------------ *)
(* Event journal. *)

(* Concurrent appends from N domains: below the per-domain ring capacity
   nothing is lost; above it, every overwritten event is accounted by
   [dropped]. *)
let prop_journal_concurrent_appends =
  QCheck2.Test.make ~name:"journal: concurrent appends all accounted"
    ~count:8
    QCheck2.Gen.(pair (int_range 1 4) (int_range 1 (1 lsl 14)))
    (fun (doms, per_dom) ->
      Obs.Journal.clear ();
      Obs.Journal.enable ();
      Fun.protect ~finally:Obs.Journal.disable (fun () ->
          let workers =
            List.init doms (fun d ->
                Domain.spawn (fun () ->
                    for i = 1 to per_dom do
                      Obs.Journal.emit Obs.Journal.Session_open ~a:d ~b:i
                        ~c:0
                    done))
          in
          List.iter Domain.join workers;
          let cap = 1 lsl 13 in
          let kept = List.length (Obs.Journal.events ()) in
          let dropped = Obs.Journal.dropped () in
          (* every emitted event is either retained or counted dropped *)
          kept + dropped = doms * per_dom
          && kept = doms * Stdlib.min per_dom cap))

let test_journal_drain_consumes () =
  Obs.Journal.clear ();
  Obs.Journal.enable ();
  Fun.protect ~finally:Obs.Journal.disable (fun () ->
      Obs.Journal.emit Obs.Journal.Pin_warn ~a:7 ~b:1 ~c:2;
      Obs.Journal.emit Obs.Journal.Pin_fence ~a:7 ~b:1 ~c:0;
      (match Obs.Journal.drain () with
      | [ e1; e2 ] ->
          checkb "kinds in order" true
            (e1.Obs.Journal.j_kind = Obs.Journal.Pin_warn
            && e2.Obs.Journal.j_kind = Obs.Journal.Pin_fence);
          checki "payload survives" 7 e1.Obs.Journal.j_a
      | l -> Alcotest.failf "expected 2 drained events, got %d" (List.length l));
      checki "drain consumed" 0 (List.length (Obs.Journal.drain ()));
      (* the non-consuming view still has both *)
      checki "events () non-consuming" 2
        (List.length (Obs.Journal.events ())))

(* ------------------------------------------------------------------ *)
(* The zero-allocation guarantee of the disabled path. *)

let test_disabled_path_allocates_nothing () =
  Obs.Trace.disable ();
  let spin () =
    for _ = 1 to 10_000 do
      let t0 = Obs.Trace.enter () in
      Obs.Trace.exit sp_outer t0
    done
  in
  (* Minimum of a few runs: Gc.allocated_bytes can absorb counters from
     domains terminated by earlier suites, inflating a single delta.
     The empty-loop baseline subtracts what Gc.allocated_bytes itself
     boxes (a float per call). *)
  let measure f =
    f () (* warm-up *);
    let best = ref infinity in
    for _ = 1 to 3 do
      let a0 = Gc.allocated_bytes () in
      f ();
      let d = Gc.allocated_bytes () -. a0 in
      if d < !best then best := d
    done;
    !best
  in
  let baseline = measure (fun () -> ()) in
  let spans = measure spin in
  if spans > baseline then
    Alcotest.failf "disabled span path allocated %.0f bytes over 10k spans"
      (spans -. baseline)

(* Same guarantee for the event journal: a disabled [emit] is one atomic
   load and a branch — no event record, no ring touch, no allocation. *)
let test_disabled_journal_allocates_nothing () =
  Obs.Journal.disable ();
  let spin () =
    for i = 1 to 10_000 do
      Obs.Journal.emit Obs.Journal.Gc_compact ~a:i ~b:i ~c:i
    done
  in
  let measure f =
    f () (* warm-up *);
    let best = ref infinity in
    for _ = 1 to 3 do
      let a0 = Gc.allocated_bytes () in
      f ();
      let d = Gc.allocated_bytes () -. a0 in
      if d < !best then best := d
    done;
    !best
  in
  let baseline = measure (fun () -> ()) in
  let emits = measure spin in
  if emits > baseline then
    Alcotest.failf "disabled journal path allocated %.0f bytes over 10k emits"
      (emits -. baseline)

let suite =
  [
    qtest prop_percentile_oracle;
    ("histogram: empty", `Quick, test_histogram_empty);
    ("histogram: snapshots consistent under concurrency", `Quick,
     test_histogram_snapshot_consistent);
    ("counter: striped increments sum across domains", `Quick,
     test_counter_across_domains);
    ("registry: idempotent, kind- and name-checked", `Quick,
     test_registry_idempotent_and_typed);
    ("gauge: max_update high-water", `Quick, test_gauge_max_update);
    ("spans: nesting and ordering across domains", `Quick,
     test_span_nesting_across_domains);
    ("spans: disabled records nothing", `Quick,
     test_span_disabled_records_nothing);
    ("spans: enabled mid-flight discarded", `Quick,
     test_span_enabled_midflight_discarded);
    ("spans: ring overwrite counts dropped", `Quick,
     test_ring_overwrite_counts_dropped);
    ("profile: phase sum close to wall on a real check", `Quick,
     test_phase_sum_close_to_wall);
    ("profile: nested spans not double-counted", `Quick,
     test_profile_no_double_count);
    ("profile: identical spans counted once", `Quick,
     test_profile_identical_spans_once);
    ("chrome trace: JSON valid with hostile names", `Quick,
     test_chrome_json_valid);
    ("chrome trace: empty event list", `Quick, test_chrome_json_empty);
    ("prometheus: grammar and cumulative buckets", `Quick,
     test_prometheus_grammar_and_buckets);
    ("prometheus: service registry exposition", `Quick,
     test_prometheus_service_registry);
    ("stats JSON: registry walk, pinned bytes", `Quick,
     test_stats_json_from_registry);
    qtest prop_journal_concurrent_appends;
    ("journal: drain consumes, events does not", `Quick,
     test_journal_drain_consumes);
    ("disabled tracing allocates nothing", `Quick,
     test_disabled_path_allocates_nothing);
    ("disabled journal allocates nothing", `Quick,
     test_disabled_journal_allocates_nothing);
  ]
