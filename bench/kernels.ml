(* Bechamel micro-benchmarks of the verification kernels on a fixed
   2000-transaction history: the per-call cost of each checker, measured
   with OLS over monotonic-clock samples.  Also isolates the frozen-CSR
   cycle kernel and the pool dispatch overhead. *)

open Bechamel
open Toolkit

(* A small CPU-bound task for measuring pool dispatch cost relative to
   useful work. *)
let spin_task seed =
  let x = ref seed in
  for _ = 1 to 20_000 do
    x := (!x * 1103515245) + 12345
  done;
  !x

let make_tests () =
  let txns = Bench_util.scale 2000 in
  let keys = Stdlib.max 15 (Bench_util.scale 300) in
  let r =
    Bench_util.mt_history ~level:Isolation.Serializable ~keys ~txns ~seed:901 ()
  in
  let h = r.Scheduler.history in
  let lwt_h =
    Lwt_gen.generate
      { Lwt_gen.num_sessions = 16;
        txns_per_session = Bench_util.scale 2000 / 16;
        num_keys = 4; concurrent_pct = 0.5; read_pct = 0.2; seed = 902;
        inject = Lwt_gen.No_injection }
  in
  let deps =
    let idx = Index.build h in
    match Deps.build ~rt:Deps.No_rt idx with
    | Ok d -> d
    | Error _ -> failwith "kernels: unexpected unresolved read"
  in
  let frozen = Deps.freeze deps in
  Test.make_grouped ~name:"kernels" ~fmt:"%s/%s"
    ([
       Test.make ~name:"mtc-ser" (Staged.stage (fun () -> Checker.check_ser h));
       Test.make ~name:"mtc-si" (Staged.stage (fun () -> Checker.check_si h));
       Test.make ~name:"mtc-sser"
         (Staged.stage (fun () -> Checker.check_sser h));
       Test.make ~name:"vl-lwt"
         (Staged.stage (fun () -> Lwt_checker.check lwt_h));
       Test.make ~name:"cobra"
         (Staged.stage (fun () -> Polygraph.check ~level:Checker.SER h));
       Test.make ~name:"polysi"
         (Staged.stage (fun () -> Polygraph.check ~level:Checker.SI h));
     ]
    @ (if !Bench_util.smoke then
         [] (* dbcop's search dominates even tiny histories; full runs only *)
       else [ Test.make ~name:"dbcop" (Staged.stage (fun () -> Dbcop.check h)) ])
    @ [
       (* Cycle kernel in isolation: the flat DFS over the frozen
          dependency graph of [h]. *)
       Test.make ~name:"cycle-csr"
         (Staged.stage (fun () -> Cycle.find_csr frozen));
     ])

(* The dependency-inference pipeline in isolation — index + graph build +
   frozen CSR — plus the whole checker.  The history is a fixed
   2000-transaction one even under --smoke: these rows are the acceptance
   numbers recorded in BENCH_PR2.json, and generating the history costs
   milliseconds. *)
let infer_rows () =
  let r =
    Bench_util.mt_history ~level:Isolation.Serializable ~keys:300 ~txns:2000
      ~seed:903 ()
  in
  let h = r.Scheduler.history in
  let infer rt () =
    let idx = Index.build h in
    match Deps.build ~rt idx with
    | Ok d -> ignore (Sys.opaque_identity (Deps.freeze d))
    | Error _ -> failwith "kernels: unexpected unresolved read"
  in
  let check level () = ignore (Sys.opaque_identity (Checker.check level h))
  in
  let row name f =
    ignore (f ()) (* warm-up *);
    let t = Bench_util.time_median ~repeat:5 f in
    let (), a = Bench_util.alloc_during f in
    [ name; Printf.sprintf "%.3f" (1000.0 *. t); Printf.sprintf "%.0f" a ]
  in
  [
    row "infer-ser/direct" (infer Deps.No_rt);
    row "infer-sser/direct" (infer Deps.Rt_sweep);
    row "check-ser/direct" (check Checker.SER);
    row "check-si/direct" (check Checker.SI);
    row "check-sser/direct" (check Checker.SSER);
  ]

(* The PR6 acceptance table: whole-checker wall time on a large clean
   history with inference sharded over j domains.  The history comes
   from Stream_gen (clean by construction — the worst case, since the
   checker builds and traverses the full dependency graph) and stays at
   100k transactions even under --smoke: these rows are the numbers
   promoted to BENCH_PR6.json.  Speedup is relative to the j=1 run of
   the same kernel; on a single-core host it hovers around 1.0 and the
   row documents that sharding costs nothing, not that it helps. *)
let parallel_check_rows () =
  let p = { Stream_gen.default with num_txns = 100_000 } in
  let acc = ref [] in
  Stream_gen.generate p (fun t -> acc := t :: !acc);
  let h =
    History.of_array ~num_keys:p.Stream_gen.num_keys
      ~num_sessions:p.Stream_gen.num_sessions
      (Array.of_list
         (History.init_txn ~num_keys:p.Stream_gen.num_keys :: List.rev !acc))
  in
  acc := [];
  let time level pool =
    let run () =
      match Checker.check ?pool level h with
      | Checker.Pass -> ()
      | Checker.Fail _ -> failwith "kernels: clean history flagged"
    in
    run () (* warm-up *);
    Bench_util.time_median ~repeat:3 run
  in
  let level_rows name level =
    let t1 = time level None in
    let row j t =
      [ name; string_of_int j; Printf.sprintf "%.1f" (1000.0 *. t);
        Printf.sprintf "%.2f" (t1 /. t) ]
    in
    row 1 t1
    :: List.map
         (fun j ->
           Pool.with_pool ~size:j (fun p -> row j (time level (Some p))))
         [ 2; 4 ]
  in
  level_rows "check-ser" Checker.SER @ level_rows "check-si" Checker.SI

(* The PR7 acceptance table: whole-checker wall time at each timestamp
   mode on the same 100k-txn Stream_gen corpus as [parallel_check_rows]
   (timestamp-faithful by construction, so certification never falls
   back).  Speedup is relative to the `ignore` run of the same kernel.
   The original >= 2x bar on check-ser/verify was set while `ignore`
   paid a hashtable duplicate-value screen that `verify` skipped; both
   now run one flat screen, so the ratio is lower and that bar no
   longer applies.  The rows stay at 100k even
   under --smoke: these are the rows promoted to BENCH_PR7.json. *)
let ts_fastpath_rows () =
  let p = { Stream_gen.default with num_txns = 100_000 } in
  let acc = ref [] in
  Stream_gen.generate p (fun t -> acc := t :: !acc);
  let h =
    History.of_array ~num_keys:p.Stream_gen.num_keys
      ~num_sessions:p.Stream_gen.num_sessions
      (Array.of_list
         (History.init_txn ~num_keys:p.Stream_gen.num_keys :: List.rev !acc))
  in
  acc := [];
  let time level ts =
    let run () =
      match Checker.check ~ts level h with
      | Checker.Pass -> ()
      | Checker.Fail _ -> failwith "kernels: clean history flagged"
    in
    (* Normalize the heap first: garbage left by earlier experiments
       otherwise taxes these runs' minor collections and makes the
       promoted ratios depend on experiment order. *)
    Gc.full_major ();
    run () (* warm-up *);
    Bench_util.time_median ~repeat:3 run
  in
  let level_rows name level =
    let t_ignore = time level Ts.Ignore in
    let row mode t =
      [ name; Ts.mode_name mode; Printf.sprintf "%.1f" (1000.0 *. t);
        Printf.sprintf "%.2f" (t_ignore /. t) ]
    in
    [ row Ts.Ignore t_ignore;
      row Ts.Verify (time level Ts.Verify);
      row Ts.Trust (time level Ts.Trust) ]
  in
  level_rows "check-ser" Checker.SER @ level_rows "check-si" Checker.SI

(* Pool dispatch overhead, measured separately: each pool exists only
   around its own timing run, because idle domains make every minor GC a
   multi-domain stop-the-world and would skew the single-domain kernels
   above. *)
let pool_rows () =
  let inputs = Array.init 64 (fun i -> i) in
  List.map
    (fun size ->
      Pool.with_pool ~size (fun p ->
          ignore (Pool.map p spin_task inputs) (* warm-up *);
          let t =
            Bench_util.time_median ~repeat:9 (fun () ->
                ignore (Pool.map p spin_task inputs))
          in
          [ Printf.sprintf "pool-map-j%d" size;
            Printf.sprintf "%.3f" (1000.0 *. t) ]))
    (if !Bench_util.smoke then [ 1 ] else [ 1; 2; 4 ])

(* The streaming checker in isolation: feed a fixed 2000-transaction
   history (commit order, the natural stream order) through
   [Online.check_stream] at each level, reporting sustained feed
   throughput and allocated minor-heap words per transaction.  Like the
   inference rows, the history stays at 2000 transactions even under
   --smoke: these are the acceptance numbers recorded in the promoted
   JSON, and a run costs tens of milliseconds. *)
let online_feed_rows () =
  let h =
    (Bench_util.mt_history ~level:Isolation.Serializable ~keys:300 ~txns:2000
       ~seed:904 ())
      .Scheduler.history
  in
  let stream =
    Array.to_list h.History.txns
    |> List.filter (fun (t : Txn.t) -> t.Txn.id <> History.init_id)
    |> List.sort (fun (a : Txn.t) b ->
           compare (a.Txn.commit_ts, a.Txn.id) (b.Txn.commit_ts, b.Txn.id))
  in
  let n = List.length stream in
  let row level =
    let run () =
      match Online.check_stream ~level ~num_keys:h.History.num_keys stream with
      | Ok k -> assert (k = n)
      | Error _ -> failwith "kernels: clean stream flagged"
    in
    run () (* warm-up *);
    let t = Bench_util.time_median ~repeat:5 run in
    let w0 = Gc.minor_words () in
    run ();
    let dw = Gc.minor_words () -. w0 in
    [
      Printf.sprintf "online_feed/%s"
        (String.lowercase_ascii (Checker.level_name level));
      Printf.sprintf "%.0f" (float_of_int n /. t);
      Printf.sprintf "%.1f" (dw /. float_of_int n);
    ]
  in
  [ row Checker.SER; row Checker.SI; row Checker.SSER ]

(* The PR9 acceptance table: bounded-memory streaming.  One long clean
   Stream_gen corpus is fed transaction by transaction — never
   materialized — through [Online.add_txn] under each watermark-GC
   policy.  [live peak] is the largest live-word estimate sampled every
   4096 feeds: it grows with the stream under [off] and stays flat under
   [auto] / an absolute ceiling.  [retained] cross-checks the estimate
   against the real major heap: growth of [Gc.stat].heap_words across
   the run after a [Gc.compact] on both sides.  [gc (ms)] is the time
   spent compacting: each run's [Online.gc_last_ns], summed.  The
   [words] row's ceiling is half the [off] row's final live words, so
   it compacts at every size; like [auto] it waits for twice the post-GC
   floor, so a floor near the ceiling does not compact at every 64-feed
   check.  The run fails when it or [auto] makes no GC run.  30k
   transactions under --smoke, 300k otherwise; these rows are the
   numbers promoted to BENCH_PR9.json. *)
let bounded_feed_rows () =
  let txns = if !Bench_util.smoke then 30_000 else 300_000 in
  let p = { Stream_gen.default with num_txns = txns } in
  let row label gc =
    Gc.compact ();
    let base_heap = (Gc.stat ()).Gc.heap_words in
    let o =
      Online.create ~gc ~level:Checker.SER
        ~num_keys:p.Stream_gen.num_keys ()
    in
    let peak = ref 0 and fed = ref 0 in
    let runs = ref 0 and gc_ns = ref 0 in
    let t0 = Unix.gettimeofday () in
    Stream_gen.generate p (fun txn ->
        (match Online.add_txn o txn with
        | Online.Ok_so_far -> ()
        | Online.Violation _ -> failwith "kernels: clean stream flagged");
        if Online.gc_runs o > !runs then begin
          runs := Online.gc_runs o;
          gc_ns := !gc_ns + Online.gc_last_ns o
        end;
        incr fed;
        if !fed land 4095 = 0 then
          peak := Stdlib.max !peak (Online.live_words o));
    let dt = Unix.gettimeofday () -. t0 in
    let s = Online.stats o in
    Gc.compact ();
    let retained = (Gc.stat ()).Gc.heap_words - base_heap in
    ignore (Sys.opaque_identity (Online.txns_seen o));
    if gc <> Online.Gc_off && s.Online.s_gc_runs = 0 then
      Bench_util.miss "bounded_feed/%s made no GC run" label;
    ( s.Online.s_live_words,
      [
        Printf.sprintf "bounded_feed/%s" label;
        Printf.sprintf "%.0f" (float_of_int txns /. dt);
        string_of_int (Stdlib.max !peak s.Online.s_live_words);
        string_of_int s.Online.s_live_words;
        string_of_int retained;
        string_of_int s.Online.s_gc_runs;
        string_of_int s.Online.s_gc_reclaimed_words;
        Printf.sprintf "%.1f" (float_of_int !gc_ns /. 1e6);
      ] )
  in
  let off_live, off = row "off" Online.Gc_off in
  let _, auto = row "auto" Online.Gc_auto in
  let _, words = row "words" (Online.Gc_words (off_live / 2)) in
  [ off; auto; words ]

(* Tracing overhead on a full checker run: the same fixed history timed
   with spans disabled (the production default — one atomic load and a
   branch per site) and enabled (per-domain rings absorbing every span).
   Advisory evidence for leaving the instrumentation compiled in. *)
let obs_overhead_rows () =
  let h =
    (Bench_util.mt_history ~level:Isolation.Serializable ~keys:300 ~txns:2000
       ~seed:903 ())
      .Scheduler.history
  in
  let run () = ignore (Sys.opaque_identity (Checker.check_ser h)) in
  let row name enabled =
    if enabled then Obs.Trace.enable () else Obs.Trace.disable ();
    run () (* warm-up *);
    let t = Bench_util.time_median ~repeat:9 run in
    Obs.Trace.disable ();
    Obs.Trace.clear ();
    [ name; Printf.sprintf "%.3f" (1000.0 *. t) ]
  in
  [ row "check-ser/tracing-off" false; row "check-ser/tracing-on" true ]

(* The PR10 acceptance table: introspection overhead on the streaming
   checker.  The same fixed 2000-transaction commit-order stream is fed
   through [Online.add_txn] while emitting one journal event per feed —
   far denser than the service ever journals (events mark throttle
   flips, compactions and session lifecycle, not feeds) — once with the
   journal disabled (the production default: one atomic load and a
   branch per emit site) and once enabled (per-domain rings absorbing
   every event).  [emit (ns)] and [emit alloc (words)] time the bare
   emit in isolation; the disabled row's alloc column is the
   zero-allocation acceptance number. *)
let introspection_rows () =
  let h =
    (Bench_util.mt_history ~level:Isolation.Serializable ~keys:300 ~txns:2000
       ~seed:906 ())
      .Scheduler.history
  in
  let stream =
    Array.to_list h.History.txns
    |> List.filter (fun (t : Txn.t) -> t.Txn.id <> History.init_id)
    |> List.sort (fun (a : Txn.t) b ->
           compare (a.Txn.commit_ts, a.Txn.id) (b.Txn.commit_ts, b.Txn.id))
  in
  let n = List.length stream in
  let feed () =
    let o = Online.create ~level:Checker.SER ~num_keys:h.History.num_keys () in
    List.iter
      (fun txn ->
        (match Online.add_txn o txn with
        | Online.Ok_so_far -> ()
        | Online.Violation _ -> failwith "kernels: clean stream flagged");
        Obs.Journal.emit Obs.Journal.Session_open ~a:1 ~b:0 ~c:0)
      stream
  in
  let emit_reps = 100_000 in
  let bare () =
    for _ = 1 to emit_reps do
      Obs.Journal.emit Obs.Journal.Gc_compact ~a:0 ~b:0 ~c:0
    done
  in
  let row name enabled =
    if enabled then Obs.Journal.enable () else Obs.Journal.disable ();
    Obs.Journal.clear ();
    feed () (* warm-up *);
    let t = Bench_util.time_median ~repeat:5 feed in
    let w0 = Gc.minor_words () in
    feed ();
    let dw = Gc.minor_words () -. w0 in
    bare () (* warm-up *);
    let te = Bench_util.time_median ~repeat:5 bare in
    let ew0 = Gc.minor_words () in
    bare ();
    let edw = Gc.minor_words () -. ew0 in
    Obs.Journal.disable ();
    Obs.Journal.clear ();
    [
      name;
      Printf.sprintf "%.0f" (float_of_int n /. t);
      Printf.sprintf "%.1f" (dw /. float_of_int n);
      Printf.sprintf "%.1f" (te /. float_of_int emit_reps *. 1e9);
      Printf.sprintf "%.2f" (edw /. float_of_int emit_reps);
    ]
  in
  [ row "introspection/journal-off" false; row "introspection/journal-on" true ]

let rm_rf dir =
  if Sys.file_exists dir then (
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir)

(* Checking-as-a-service transport overhead: stream a fixed clean SER
   history through an in-process server over each transport and report
   end-to-end throughput plus the server-side per-feed latency
   percentiles (which exclude the wire, so the gap between the two
   columns is the protocol cost).  The [-wal-*] rows rerun the unix
   transport with durability on, so the delta against the plain unix
   row is the write-ahead-log cost under each fsync policy. *)
let service_rows () =
  (* long enough to amortize per-stream fixed costs (session setup, the
     Batch-mode barrier fsync at the verdict) the way a real monitoring
     stream would *)
  let txns = if !Bench_util.smoke then Bench_util.scale 2000 else 6000 in
  let keys = Stdlib.max 15 (Bench_util.scale 300) in
  let h =
    (Bench_util.mt_history ~level:Isolation.Serializable ~keys ~txns ~seed:903 ())
      .Scheduler.history
  in
  (* The server-side columns: feed latency p50/p99 (bucket upper edges,
     exact within a factor of two) and mean minor-heap words per feed. *)
  let feed_cells (m : Metrics.t) =
    [
      Printf.sprintf "%d" (Obs.Histogram.percentile m.feed_ns 50.0);
      Printf.sprintf "%d" (Obs.Histogram.percentile m.feed_ns 99.0);
      Printf.sprintf "%.0f" (Obs.Histogram.mean m.feed_words);
    ]
  in
  let one ?durable label addr =
    let wal_dir =
      Option.map
        (fun sync ->
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "mtc-bench-wal-%d-%s" (Unix.getpid ())
               (Wal.sync_name sync)))
        durable
    in
    let config =
      {
        Server.default_config with
        Server.listen = [ addr ];
        wal_dir;
        wal_sync =
          Option.value durable ~default:Server.default_config.Server.wal_sync;
      }
    in
    let t = Server.start config in
    Fun.protect
      ~finally:(fun () ->
        Server.stop t;
        Option.iter rm_rf wal_dir)
      (fun () ->
        let m = Server.metrics t in
        let addr = List.hd (Server.bound_addrs t) in
        match Client.connect addr with
        | Error e -> failwith ("service bench connect: " ^ e)
        | Ok c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                (* median over several whole-history streams — a single
                   ~20ms stream is too noisy to compare rows *)
                let reps = if !Bench_util.smoke then 3 else 7 in
                let stream () =
                  let sid =
                    match
                      Client.open_session c ~level:Checker.SER
                        ~num_keys:h.History.num_keys ()
                    with
                    | Ok sid -> sid
                    | Error e -> failwith ("service bench open: " ^ e)
                  in
                  let fed0 = Obs.Counter.get m.txns_fed in
                  let t0 = Unix.gettimeofday () in
                  (match Client.feed_history c ~sid h with
                  | Ok (Wire.V_ok _) -> ()
                  | Ok (Wire.V_violation _) ->
                      failwith "service bench: clean history flagged"
                  | Error e -> failwith ("service bench feed: " ^ e));
                  let dt = Unix.gettimeofday () -. t0 in
                  ignore (Client.close_session c ~sid);
                  float_of_int (Obs.Counter.get m.txns_fed - fed0) /. dt
                in
                let rates = List.sort compare (List.init reps (fun _ -> stream ())) in
                label :: Printf.sprintf "%.0f" (List.nth rates (reps / 2))
                :: feed_cells m))
  in
  (* Aggregate throughput with [k] concurrent sessions, each its own
     connection, on a server with [k] checking shards.  Client threads
     are systhreads of this process, so on a single-core host the row
     mostly shows the shard batching win; on a multi-core host the
     sessions check in parallel. *)
  let multi label k addr =
    let config =
      { Server.default_config with Server.listen = [ addr ]; shards = k }
    in
    let t = Server.start config in
    Fun.protect
      ~finally:(fun () -> Server.stop t)
      (fun () ->
        let addr = List.hd (Server.bound_addrs t) in
        let feed_one () =
          match Client.connect addr with
          | Error e -> failwith ("service bench connect: " ^ e)
          | Ok c ->
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () ->
                  let sid =
                    match
                      Client.open_session c ~level:Checker.SER
                        ~num_keys:h.History.num_keys ()
                    with
                    | Ok sid -> sid
                    | Error e -> failwith ("service bench open: " ^ e)
                  in
                  match Client.feed_history c ~sid h with
                  | Ok (Wire.V_ok _) -> ()
                  | Ok (Wire.V_violation _) ->
                      failwith "service bench: clean history flagged"
                  | Error e -> failwith ("service bench feed: " ^ e))
        in
        let t0 = Unix.gettimeofday () in
        let threads = List.init k (fun _ -> Thread.create feed_one ()) in
        List.iter Thread.join threads;
        let dt = Unix.gettimeofday () -. t0 in
        let m = Server.metrics t in
        let fed = Obs.Counter.get m.txns_fed in
        label :: Printf.sprintf "%.0f" (float_of_int fed /. dt) :: feed_cells m)
  in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mtc-bench-%d.sock" (Unix.getpid ()))
  in
  let k = Stdlib.max 2 (Bench_util.jobs ()) in
  [
    one "service_feed/unix" (Server.A_unix sock);
    one ~durable:Wal.Batch "service_feed/unix-wal-batch"
      (Server.A_unix (sock ^ ".walb"));
    one ~durable:Wal.Always "service_feed/unix-wal-always"
      (Server.A_unix (sock ^ ".wala"));
    one "service_feed/tcp" (Server.A_tcp ("127.0.0.1", 0));
    multi
      (Printf.sprintf "service_feed/unix-x%d" k)
      k
      (Server.A_unix (sock ^ ".multi"));
  ]

(* The event-loop claim in numbers: a herd of open-but-quiet
   connections costs the server file descriptors and buffers, not a
   systhread each.  The herd lives in this same process (2 fds per
   connection), so it is capped below the default ulimit; `mtc swarm`
   drives the full 10k-connection version from a separate process. *)
let idle_conn_rows () =
  let n = if !Bench_util.smoke then 500 else 8_000 in
  let process_threads () =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> -1
    | ic ->
        let rec go acc =
          match input_line ic with
          | line ->
              go
                (try Scanf.sscanf line "Threads: %d" (fun t -> t)
                 with Scanf.Scan_failure _ | End_of_file -> acc)
          | exception End_of_file -> acc
        in
        let r = go (-1) in
        close_in ic;
        r
  in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mtc-bench-%d.idle.sock" (Unix.getpid ()))
  in
  let config =
    { Server.default_config with Server.listen = [ Server.A_unix sock ] }
  in
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      let addr = List.hd (Server.bound_addrs t) in
      let t0 = Unix.gettimeofday () in
      let conns =
        List.init n (fun _ ->
            match Client.connect addr with
            | Ok c -> c
            | Error e -> failwith ("idle bench connect: " ^ e))
      in
      let dt = Unix.gettimeofday () -. t0 in
      let threads = process_threads () in
      List.iter Client.close conns;
      [
        [
          Printf.sprintf "idle_conns/%d" n;
          string_of_int n;
          Printf.sprintf "%.0f" (float_of_int n /. dt);
          (if threads < 0 then "-" else string_of_int threads);
        ];
      ])

let run () =
  Bench_util.section
    "Verification kernels (Bechamel OLS, 2000-txn MT history / 2000-event LWT history)";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg =
    let limit = if !Bench_util.smoke then 20 else 200 in
    let quota = Time.second (if !Bench_util.smoke then 0.1 else 1.0) in
    Benchmark.cfg ~limit ~quota ~kde:None ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (make_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (t :: _) -> t
        | _ -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) !rows in
  Bench_util.print_table ~header:[ "kernel"; "time per run (ms)" ]
    (List.map
       (fun (name, ns) -> [ name; Printf.sprintf "%.3f" (ns /. 1e6) ])
       rows);
  (* The section string is @bench-diff's table key: keep it verbatim. *)
  Bench_util.subsection
    "dependency inference: direct-to-CSR vs list-based digraph (fixed 2000-txn history, median of 5)";
  Bench_util.print_table
    ~header:[ "pipeline"; "time (ms)"; "verify_alloc_bytes" ]
    (infer_rows ());
  Bench_util.subsection
    "parallel check: sharded inference, 100k-txn clean history (median of 3)";
  Bench_util.print_table
    ~header:[ "kernel"; "jobs"; "time (ms)"; "speedup" ]
    (parallel_check_rows ());
  Bench_util.subsection
    "ts_fastpath: timestamp modes, 100k-txn clean history (median of 3)";
  Bench_util.print_table
    ~header:[ "kernel"; "timestamps"; "time (ms)"; "speedup vs ignore" ]
    (ts_fastpath_rows ());
  Bench_util.subsection
    "pool dispatch (Pool.map of 64 spin tasks, median of 9)";
  Bench_util.print_table ~header:[ "pool"; "time per map (ms)" ] (pool_rows ());
  Bench_util.subsection
    "streaming checker: Online feed throughput (fixed 2000-txn history, commit order)";
  Bench_util.print_table
    ~header:[ "stream"; "txns/s"; "words/feed" ]
    (online_feed_rows ());
  Bench_util.subsection
    "bounded_feed: watermark GC of the committed prefix (Stream_gen, never materialized)";
  Bench_util.print_table
    ~header:
      [ "config"; "txns/s"; "live peak (words)"; "live final (words)";
        "retained heap (words)"; "gc runs"; "reclaimed (words)"; "gc (ms)" ]
    (bounded_feed_rows ());
  Bench_util.subsection
    "observability: full SER check, tracing disabled vs enabled (median of 9)";
  Bench_util.print_table ~header:[ "config"; "time (ms)" ]
    (obs_overhead_rows ());
  Bench_util.subsection
    "introspection: Online feed emitting one journal event per feed, journal disabled vs enabled";
  Bench_util.print_table
    ~header:
      [ "config"; "txns/s"; "words/feed"; "emit (ns)"; "emit alloc (words)" ]
    (introspection_rows ());
  Bench_util.subsection
    "checking service: whole-history stream through a live server";
  Bench_util.print_table
    ~header:
      [ "transport"; "txns/s"; "server p50 (ns)"; "server p99 (ns)";
        "words/feed" ]
    (service_rows ());
  Bench_util.subsection
    "idle connection herd: event-loop cost of open-but-quiet clients";
  Bench_util.print_table
    ~header:[ "herd"; "conns"; "open conns/s"; "process threads" ]
    (idle_conn_rows ())
