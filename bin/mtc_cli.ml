(* The mtc command-line tool: black-box isolation checking from the shell.

     mtc check file.hist --level si        verify a recorded history
     mtc run --level ser --txns 2000       generate + execute + verify
     mtc hunt --fault lost-update          stress a faulty engine until a bug
     mtc serve --listen unix:/tmp/mtc.sock run the checking daemon
     mtc feed file.hist --addr unix:...    stream a history to a daemon
     mtc anomalies                         print the Figure 5 catalogue *)

open Cmdliner

(* Exit codes, uniform across check/run/hunt/feed so shell pipelines and
   CI can gate on them.  Violations are exit 1 (like grep's "found");
   environment problems (unreadable file, bad address, refused
   connection) are exit 2, distinct from cmdliner's own 124/125. *)
let exit_pass = 0
let exit_violation = 1
let exit_error = 2

let verdict_exits =
  Cmd.Exit.info exit_pass
    ~doc:"the history satisfies the requested isolation level (PASS), or \
          no violation was found."
  :: Cmd.Exit.info exit_violation
       ~doc:"an isolation violation was found; the counterexample report \
             is printed on standard output."
  :: Cmd.Exit.info exit_error
       ~doc:"the history could not be loaded, an address could not be \
             reached, or the request was otherwise invalid."
  :: Cmd.Exit.defaults

(* ------------------------------------------------------------------ *)
(* Shared argument converters. *)

(* Strong levels run MTC's main algorithms; weak ones the Weak_checker
   extension. *)
type any_level = Strong of Checker.level | Weak of Weak_checker.level

let any_level_name = function
  | Strong l -> Checker.level_name l
  | Weak l -> Weak_checker.level_name l

let any_level_of_string s =
  match Checker.level_of_string s with
  | Some l -> Some (Strong l)
  | None -> (
      match String.lowercase_ascii s with
      | "rc" | "read-committed" -> Some (Weak Weak_checker.Read_committed)
      | "ra" | "read-atomic" -> Some (Weak Weak_checker.Read_atomic)
      | "cc" | "causal" -> Some (Weak Weak_checker.Causal)
      | _ -> None)

let level_conv =
  let parse s =
    match any_level_of_string s with
    | Some l -> Ok l
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown level %S (si|ser|sser|rc|ra|causal)" s))
  in
  Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (any_level_name l))

(* Unified verification: Ok () or a rendered report.  [on_ts_report]
   receives the certification-mismatch report (lying timestamp oracle
   evidence) when a timestamp mode produced one — side-band diagnostics,
   never part of the verdict. *)
let verify_any ?(skew = 0) ?pool ?(ts = Ts.Ignore) ?on_ts_report level h =
  match level with
  | Strong l -> (
      let outcome, ts_state = Checker.check_report ~skew ?pool ~ts l h in
      (match (on_ts_report, ts_state) with
      | Some f, Some st -> (
          match Ts.render_report st with Some r -> f r | None -> ())
      | _ -> ());
      match outcome with
      | Checker.Pass -> Ok ()
      | Checker.Fail v -> Error (Report.render h l v))
  | Weak l -> (
      match Weak_checker.check l h with
      | Weak_checker.Pass -> Ok ()
      | Weak_checker.Fail v ->
          Error
            (Format.asprintf "%s violation: %a@."
               (Weak_checker.level_name l)
               Weak_checker.pp_violation v))

let format_conv =
  let parse s =
    match Codec.format_of_string s with
    | Some f -> Ok f
    | None ->
        Error (`Msg (Printf.sprintf "unknown format %S (auto|text|bin)" s))
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with
      | Codec.Auto -> "auto"
      | Codec.Text -> "text"
      | Codec.Bin -> "bin")
  in
  Arg.conv (parse, print)

let dist_conv =
  let parse s =
    match Distribution.kind_of_string s with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
             (Printf.sprintf
                "unknown distribution %S (uniform|zipfian|hotspot|exponential)"
                s))
  in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (Distribution.kind_name d))

let level_arg =
  Arg.(value & opt level_conv (Strong Checker.SI)
       & info [ "level"; "l" ] ~docv:"LEVEL"
           ~doc:"Isolation level to verify: si, ser, sser, rc, ra or causal.")

let txns_arg =
  Arg.(value & opt int 1000 & info [ "txns"; "n" ] ~docv:"N"
         ~doc:"Number of transactions to generate.")

let keys_arg =
  Arg.(value & opt int 100 & info [ "keys"; "k" ] ~docv:"K"
         ~doc:"Number of objects in the key space.")

let sessions_arg =
  Arg.(value & opt int 10 & info [ "sessions"; "s" ] ~docv:"S"
         ~doc:"Number of client sessions.")

let dist_arg =
  Arg.(value & opt dist_conv Distribution.Uniform & info [ "dist"; "d" ]
         ~docv:"DIST" ~doc:"Object-access distribution.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Random seed (runs are deterministic per seed).")

let fault_arg =
  Arg.(value & opt string "none" & info [ "fault" ] ~docv:"FAULT"
         ~doc:"Injected engine bug: none, lost-update, aborted-read, \
               causality-violation, write-skew, long-fork, ts-skew, \
               ts-reorder or ts-dup.")

let fault_p_arg =
  Arg.(value & opt float 0.1 & info [ "fault-p" ] ~docv:"P"
         ~doc:"Trigger probability of the injected fault.")

let skew_arg =
  Arg.(value & opt int 0 & info [ "skew" ] ~docv:"TICKS"
         ~doc:"Clock-skew tolerance for SSER checking: real-time edges are \
               only derived from gaps larger than $(docv).")

let ts_conv =
  let parse s =
    match Ts.mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown timestamp mode %S (ignore|trust|verify)" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Ts.mode_name m))

let timestamps_arg =
  Arg.(value & opt ts_conv Ts.Ignore
       & info [ "timestamps" ] ~docv:"MODE"
           ~doc:"Timestamp fast path for strong levels: $(b,ignore) infers \
                 version orders from values (the default), $(b,verify) \
                 predicts them from commit timestamps and certifies every \
                 prediction against the values — same verdict — and \
                 $(b,trust) skips certification entirely (only sound if \
                 the engine's timestamps are truthful).  In verify mode \
                 certification mismatches are reported on stderr.")

let gt_arg =
  Arg.(value & flag & info [ "gt" ]
         ~doc:"Generate general transactions (Cobra-style) instead of \
               mini-transactions.")

let jobs_arg =
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Parallelism degree: fan independent trials out over $(docv) \
               domains.  0 (the default) means auto — the MTC_JOBS \
               environment variable if set, otherwise the recommended \
               domain count.  Verdicts are identical for every value.")

let resolve_jobs j = if j <= 0 then Pool.default_size () else j

let ops_arg =
  Arg.(value & opt int 10 & info [ "ops" ] ~docv:"OPS"
         ~doc:"Operations per transaction for --gt workloads.")

let engine_level level =
  (* Run the engine at the mechanism matching the checked level. *)
  match level with
  | Strong Checker.SI -> Isolation.Snapshot
  | Strong Checker.SER -> Isolation.Serializable
  | Strong Checker.SSER -> Isolation.Strict_serializable
  | Weak Weak_checker.Read_committed -> Isolation.Read_committed
  | Weak (Weak_checker.Read_atomic | Weak_checker.Causal) -> Isolation.Snapshot

let parse_fault name p =
  match Fault.of_string ~p name with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "unknown fault %S" name)

let make_spec ~gt ~txns ~keys ~sessions ~dist ~ops ~seed =
  if gt then
    Gt_gen.generate
      { Gt_gen.num_sessions = sessions; num_txns = txns; num_keys = keys;
        ops_per_txn = ops; dist; seed }
  else
    Mt_gen.generate
      { Mt_gen.num_sessions = sessions; num_txns = txns; num_keys = keys;
        dist; seed }

(* ------------------------------------------------------------------ *)
(* mtc check *)

let check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"HISTORY"
           ~doc:"History file produced by 'mtc run -o' (mtc-history v1 format).")
  in
  let profile_arg =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Record spans while checking and print a per-phase time \
                 breakdown (parse / infer / check) afterwards.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the recorded spans to $(docv) as Chrome trace-event \
                 JSON — load it in ui.perfetto.dev or chrome://tracing.  \
                 Implies span recording (like $(b,--profile)).")
  in
  let format_arg =
    Arg.(value & opt format_conv Codec.Auto & info [ "format"; "f" ]
           ~docv:"FMT"
           ~doc:"History file format: text, bin, or auto (sniff the 8-byte \
                 magic).  Binary files are mmapped and decoded without an \
                 intermediate copy.")
  in
  let run file level skew timestamps profile trace format jobs =
    let jobs = resolve_jobs jobs in
    let with_jobs f =
      (* Shut the pool down before exiting, so the exit code is computed
         inside and the process termination stays single-domain. *)
      if jobs > 1 then Pool.with_pool ~size:jobs (fun p -> f (Some p))
      else f None
    in
    let observing = profile || trace <> None in
    if observing then begin
      Obs.Trace.clear ();
      Obs.Trace.enable ()
    end;
    let code =
      with_jobs @@ fun pool ->
      (* Wall clock covers exactly what the spans can cover: the load and
         the verification, not the printing between them. *)
      let t_load = Obs.Clock.now_ns () in
      match Codec.load ~format ?pool file with
      | Error e ->
          Printf.eprintf "cannot load %s: %s\n" file e;
          exit_error
      | Ok h ->
          let load_ns = Obs.Clock.now_ns () - t_load in
          Printf.printf "%s\n" (History.stats h);
          let t_verify = Obs.Clock.now_ns () in
          let result =
            verify_any ~skew ?pool ~ts:timestamps
              ~on_ts_report:(fun r -> prerr_string r)
              level h
          in
          let wall_ns = load_ns + (Obs.Clock.now_ns () - t_verify) in
          if observing then begin
            Obs.Trace.disable ();
            let events = Obs.Trace.events () in
            (match trace with
            | Some path ->
                Out_channel.with_open_text path (fun oc ->
                    output_string oc (Obs.Export.chrome_json events));
                Printf.printf "trace: %d spans written to %s%s\n"
                  (List.length events) path
                  (let d = Obs.Trace.dropped () in
                   if d > 0 then Printf.sprintf " (%d dropped)" d else "")
            | None -> ());
            if profile then print_string (Obs.Profile.render ~wall_ns events)
          end;
          (match result with
          | Ok () ->
              Printf.printf "%s: PASS\n" (any_level_name level);
              exit_pass
          | Error report ->
              print_string report;
              exit_violation)
    in
    exit code
  in
  Cmd.v
    (Cmd.info "check" ~exits:verdict_exits
       ~doc:"Verify a recorded history against an isolation level.  With \
             $(b,--jobs) > 1, loading and dependency inference shard over \
             that many domains; the verdict and any counterexample are \
             byte-identical for every value.")
    Term.(const run $ file_arg $ level_arg $ skew_arg $ timestamps_arg
          $ profile_arg $ trace_arg $ format_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* mtc run *)

let run_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Also save the observed history to $(docv).")
  in
  let run level txns keys sessions dist seed fault fault_p gt ops out =
    match parse_fault fault fault_p with
    | Error e ->
        Printf.eprintf "%s\n" e;
        exit 2
    | Ok fault ->
        let spec = make_spec ~gt ~txns ~keys ~sessions ~dist ~ops ~seed in
        let db = { Db.level = engine_level level; fault; num_keys = keys; seed } in
        let verify (r : Scheduler.result) =
          match verify_any level r.Scheduler.history with
          | Ok () -> Endtoend.V_pass
          | Error report -> Endtoend.V_fail report
        in
        let m = Endtoend.measure ~db ~spec ~verify () in
        Format.printf "%a@." Endtoend.pp_measurement m;
        (match out with
        | Some path ->
            let r =
              Scheduler.run ~params:{ Scheduler.default_params with seed } ~db
                ~spec ()
            in
            Codec.save path r.Scheduler.history;
            Printf.printf "history saved to %s\n" path
        | None -> ());
        (match m.Endtoend.verdict with
        | Endtoend.V_pass -> exit 0
        | Endtoend.V_fail report ->
            print_string report;
            exit 1)
  in
  Cmd.v
    (Cmd.info "run" ~exits:verdict_exits
       ~doc:"Generate a workload, execute it on the simulated engine, and \
             verify the observed history end-to-end.")
    Term.(const run $ level_arg $ txns_arg $ keys_arg $ sessions_arg
          $ dist_arg $ seed_arg $ fault_arg $ fault_p_arg $ gt_arg $ ops_arg
          $ out_arg)

(* ------------------------------------------------------------------ *)
(* mtc gen *)

let gen_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the history as text (mtc-history v1) to $(docv).  \
                 The whole history is materialized first, so prefer \
                 $(b,--out-bin) for very large corpora.")
  in
  let out_bin_arg =
    Arg.(value & opt (some string) None & info [ "out-bin" ] ~docv:"FILE"
           ~doc:"Stream the history in the binary format to $(docv).  \
                 Transactions are encoded and flushed as they are \
                 generated — constant memory, so multi-million-transaction \
                 corpora are fine.")
  in
  let ts_skew_arg =
    Arg.(value & opt int 0 & info [ "ts-skew" ] ~docv:"TICKS"
           ~doc:"Perturb each transaction's start/commit timestamps by up \
                 to $(docv) ticks — a drifting but honest clock.  The ops \
                 and values are unchanged versus the same seed without \
                 skew.")
  in
  let ts_lie_arg =
    Arg.(value & opt float 0.0 & info [ "ts-lie" ] ~docv:"P"
           ~doc:"With probability $(docv), report the timestamp window of \
                 a random earlier transaction — a lying timestamp oracle \
                 that $(b,--timestamps)=verify must catch.  The ops and \
                 values are unchanged versus the same seed without lies.")
  in
  let run txns keys sessions dist seed ts_skew ts_lie out out_bin =
    if out = None && out_bin = None then begin
      Printf.eprintf "mtc gen: nothing to do — pass --out and/or --out-bin\n";
      exit exit_error
    end;
    let p =
      { Stream_gen.num_txns = txns; num_keys = keys; num_sessions = sessions;
        dist; seed; ts_skew; ts_lie }
    in
    (try
       (match out_bin with
       | Some path ->
           let w =
             Codec.Bin_writer.create ~num_keys:keys ~num_sessions:sessions
               path
           in
           Fun.protect
             ~finally:(fun () -> Codec.Bin_writer.close w)
             (fun () -> Stream_gen.generate p (Codec.Bin_writer.add w));
           Printf.printf "%d txns written to %s (bin)\n" txns path
       | None -> ());
       match out with
       | Some path ->
           let acc = ref [] in
           Stream_gen.generate p (fun t -> acc := t :: !acc);
           let h =
             History.of_array ~num_keys:keys ~num_sessions:sessions
               (Array.of_list
                  (History.init_txn ~num_keys:keys :: List.rev !acc))
           in
           Codec.save path h;
           Printf.printf "%d txns written to %s (text)\n" txns path
       | None -> ()
     with
    | Invalid_argument m | Sys_error m ->
        Printf.eprintf "mtc gen: %s\n" m;
        exit exit_error);
    exit exit_pass
  in
  Cmd.v
    (Cmd.info "gen" ~exits:verdict_exits
       ~doc:"Generate a clean (serially executed) mini-transaction history \
             and write it to disk without running the simulated engine — \
             the corpus generator for the scaling benchmarks.  The result \
             passes sser, ser and si by construction.")
    Term.(const run $ txns_arg $ keys_arg $ sessions_arg $ dist_arg
          $ seed_arg $ ts_skew_arg $ ts_lie_arg $ out_arg $ out_bin_arg)

(* ------------------------------------------------------------------ *)
(* mtc hunt *)

let hunt_cmd =
  let trials_arg =
    Arg.(value & opt int 25 & info [ "trials" ] ~docv:"T"
           ~doc:"Maximum number of histories to try.")
  in
  let run level txns keys sessions dist seed fault fault_p trials jobs =
    match parse_fault fault fault_p with
    | Error e ->
        Printf.eprintf "%s\n" e;
        exit 2
    | Ok fault -> (
        match level with
        | Strong l ->
            (* Strong levels go through Endtoend.hunt, which fans the
               independent trials out over -j domains. *)
            let make_spec ~seed:trial =
              make_spec ~gt:false ~txns ~keys ~sessions ~dist ~ops:0
                ~seed:(seed + trial)
            in
            let db =
              { Db.level = engine_level level; fault; num_keys = keys; seed }
            in
            let h =
              Endtoend.hunt ~sched_seed:seed ~jobs:(resolve_jobs jobs) ~db
                ~make_spec ~level:l ~max_trials:trials ()
            in
            (match h.Endtoend.violation with
            | None ->
                Printf.printf
                  "no violation in %d histories (%d committed txns)\n"
                  h.Endtoend.trials h.Endtoend.committed_total;
                exit 0
            | Some report ->
                Printf.printf
                  "violation found after %d histories (%d committed txns):\n"
                  h.Endtoend.trials h.Endtoend.committed_total;
                print_string report;
                exit 1)
        | Weak _ ->
            let committed = ref 0 in
            let rec go trial =
              if trial > trials then begin
                Printf.printf
                  "no violation in %d histories (%d committed txns)\n" trials
                  !committed;
                exit 0
              end
              else begin
                let spec =
                  make_spec ~gt:false ~txns ~keys ~sessions ~dist ~ops:0
                    ~seed:(seed + trial)
                in
                let db =
                  { Db.level = engine_level level; fault; num_keys = keys;
                    seed = seed + trial }
                in
                let r =
                  Scheduler.run
                    ~params:{ Scheduler.default_params with seed = seed + trial }
                    ~db ~spec ()
                in
                committed := !committed + r.Scheduler.committed;
                match verify_any level r.Scheduler.history with
                | Ok () -> go (trial + 1)
                | Error report ->
                    Printf.printf
                      "violation found after %d histories (%d committed txns):\n"
                      trial !committed;
                    print_string report;
                    exit 1
              end
            in
            go 1)
  in
  Cmd.v
    (Cmd.info "hunt" ~exits:verdict_exits
       ~doc:"Stress the engine with freshly seeded workloads until the \
             checker finds an isolation violation.")
    Term.(const run $ level_arg $ txns_arg $ keys_arg $ sessions_arg
          $ dist_arg $ seed_arg $ fault_arg $ fault_p_arg $ trials_arg
          $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* mtc graph *)

let graph_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"HISTORY"
           ~doc:"History file to render.")
  in
  let violation_arg =
    Arg.(value & flag & info [ "violation" ]
           ~doc:"Render only the counterexample of the --level check \
                 instead of the whole dependency graph.")
  in
  let strong_of = function
    | Strong l -> l
    | Weak _ -> Checker.SI
  in
  let run file level violation_only =
    match Codec.load file with
    | Error e ->
        Printf.eprintf "cannot load %s: %s\n" file e;
        exit 2
    | Ok h ->
        if violation_only then (
          match Checker.check (strong_of level) h with
          | Checker.Pass ->
              Printf.eprintf "history passes %s: nothing to render\n"
                (any_level_name level);
              exit 0
          | Checker.Fail v -> print_string (Viz.dot_of_violation h v))
        else print_string (Viz.dot_of_history h)
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Emit the dependency graph (or a counterexample) as Graphviz \
             dot on stdout.")
    Term.(const run $ file_arg $ level_arg $ violation_arg)

(* ------------------------------------------------------------------ *)
(* mtc serve / mtc feed — the checking service. *)

let addr_conv =
  let parse s =
    match Server.addr_of_string s with
    | Ok a -> Ok a
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun ppf a -> Format.pp_print_string ppf (Server.addr_to_string a))

let gc_conv =
  Arg.conv
    ( (fun s ->
        match Online.gc_of_string s with
        | Some v -> Ok v
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "bad GC policy %S (want off, auto or a \
                                  word count)" s))),
      fun ppf v -> Format.pp_print_string ppf (Online.gc_to_string v) )

let gc_doc =
  "Watermark GC of the committed prefix: $(b,off) retains every \
   transaction (exact historical behavior); $(b,auto) compacts whenever \
   the live-word estimate exceeds both twice the post-GC floor and 64Ki \
   words (flat memory for unbounded streams), and a number N whenever it \
   exceeds both twice the floor and N words.  Verdicts and \
   counterexamples are unaffected."

let serve_cmd =
  let listen_arg =
    Arg.(
      value
      & opt_all addr_conv []
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Listen address, $(b,unix:PATH) or $(b,tcp:HOST:PORT) \
             (repeatable).  Defaults to unix:/tmp/mtc.sock.  TCP port 0 \
             binds an ephemeral port and prints it.")
  in
  let queue_arg =
    Arg.(
      value & opt int 1024
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Per-session ingress queue bound.  A full queue blocks that \
             connection's reader (hard backpressure) and emits an advisory \
             throttle frame.")
  in
  let idle_arg =
    Arg.(
      value & opt float 0.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close sessions idle for longer than $(docv) (0 disables).")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Also serve Prometheus text exposition over HTTP on \
             127.0.0.1:$(docv) ($(b,GET /metrics)).  Port 0 binds an \
             ephemeral port and prints it.")
  in
  let wal_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal-dir" ] ~docv:"DIR"
          ~doc:
            "Durability directory (created if missing): one write-ahead \
             log file per shard generation, each opening with a \
             checkpoint of the shard's sessions.  A restarted server \
             restores it and clients re-attach with \
             $(b,mtc feed --resume); a file it cannot read stops it \
             (exit 2) with the file named.")
  in
  let wal_sync_arg =
    let sync_conv =
      Arg.conv
        ( (fun s ->
            match Wal.sync_of_string s with
            | Some v -> Ok v
            | None ->
                Error (`Msg (Printf.sprintf "bad sync policy %S" s))),
          fun ppf v -> Format.pp_print_string ppf (Wal.sync_name v) )
    in
    Arg.(
      value & opt sync_conv Wal.Batch
      & info [ "wal-sync" ] ~docv:"POLICY"
          ~doc:
            "WAL fsync policy: $(b,always) (fsync per record), $(b,batch) \
             (fsync before each acknowledged verdict, default) or \
             $(b,off).  Under $(b,batch) and $(b,off), appends group-commit: \
             records buffer in user space and reach the kernel in one \
             write() when the shard's queue drains (or at an acknowledged \
             sync, or every 256 KiB), so a server kill can lose the \
             unflushed tail — acknowledged syncs are still durable.  \
             $(b,always) keeps the historical write-and-fsync per record.")
  in
  let snapshot_every_arg =
    Arg.(
      value & opt int 0
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Checkpoint a shard (start its next WAL generation, headed \
             by a snapshot of its sessions) every $(docv) feeds it \
             accepts; 0 checkpoints only on SIGHUP and shutdown.")
  in
  let drain_delay_arg =
    Arg.(
      value & opt float 0.0
      & info [ "drain-delay" ] ~docv:"SECONDS"
          ~doc:
            "Artificial per-item worker delay — a test knob to provoke \
             backpressure and mid-feed crashes deterministically; keep 0 \
             in production.")
  in
  let gc_arg =
    Arg.(
      value & opt gc_conv Online.Gc_off
      & info [ "gc-watermark" ] ~docv:"POLICY"
          ~doc:
            (gc_doc
            ^ "  This is the server default; a client may override it \
               per session."))
  in
  let pin_warn_arg =
    Arg.(
      value & opt float 0.0
      & info [ "pin-warn-after" ] ~docv:"SECONDS"
          ~doc:
            "Flag a session whose feeds have stalled for $(docv) while it \
             still retains live checker memory — such a session pins the \
             watermark-GC horizon and the memory bound with it.  Flagged \
             sessions show as PINNED in $(b,mtc stats --sessions) / \
             $(b,mtc top), raise the $(b,mtc_horizon_pinned_sessions) \
             gauge and emit a journal event.  0 disables the detector.")
  in
  let pin_fence_arg =
    let fence_conv =
      Arg.enum [ ("off", Server.Fence_off); ("close", Server.Fence_close) ]
    in
    Arg.(
      value & opt fence_conv Server.Fence_off
      & info [ "pin-fence" ] ~docv:"POLICY"
          ~doc:
            "What to do with a pinned session: $(b,off) (default) only \
             reports it; $(b,close) force-closes it (close reason \
             $(i,pinned)) so its retained memory is released and the \
             aggregate live-words bound holds again.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append the structured event journal (throttles, compactions, \
             WAL fsync stalls, snapshots, session opens/closes, pin \
             warnings) to $(docv) as JSON lines.")
  in
  let run listen queue idle jobs metrics_port wal_dir wal_sync snapshot_every
      drain_delay gc pin_warn pin_fence journal =
    let listen =
      if listen = [] then [ Server.A_unix "/tmp/mtc.sock" ] else listen
    in
    let config =
      {
        Server.listen;
        queue_capacity = Stdlib.max 1 queue;
        idle_timeout = idle;
        drain_delay;
        shards = resolve_jobs jobs;
        metrics_port;
        wal_dir;
        wal_sync;
        snapshot_every;
        gc;
        pin_warn_after = pin_warn;
        pin_fence;
        journal;
      }
    in
    let server = ref None in
    match
      Server.run config ~on_ready:(fun t ->
          server := Some t;
          List.iter
            (fun a ->
              Printf.printf "mtc serve: listening on %s\n%!"
                (Server.addr_to_string a))
            (Server.bound_addrs t);
          Printf.printf "mtc serve: event backend %s\n%!"
            (Server.event_backend t);
          (if gc <> Online.Gc_off then
             Printf.printf "mtc serve: watermark GC %s\n%!"
               (Online.gc_to_string gc));
          Option.iter
            (fun dir ->
              Printf.printf "mtc serve: durable in %s (sync %s)\n%!" dir
                (Wal.sync_name wal_sync))
            wal_dir;
          (if pin_warn > 0.0 then
             Printf.printf "mtc serve: horizon-pin detector after %.1fs \
                            (fence %s)\n%!"
               pin_warn
               (match pin_fence with
               | Server.Fence_off -> "off"
               | Server.Fence_close -> "close"));
          Option.iter
            (fun f -> Printf.printf "mtc serve: journal to %s\n%!" f)
            journal;
          Option.iter
            (fun p ->
              Printf.printf
                "mtc serve: metrics on http://127.0.0.1:%d/metrics\n%!" p)
            (Server.metrics_port t))
    with
    | () ->
        (* SIGTERM/SIGINT arrived and the drain completed: dump metrics *)
        Printf.printf "mtc serve: shut down\n%s\n"
          (Metrics.to_json (Server.metrics (Option.get !server)));
        exit exit_pass
    | exception Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "mtc serve: cannot listen: %s (%s)\n"
          (Unix.error_message e) arg;
        exit exit_error
    | exception Failure msg ->
        Printf.eprintf "mtc serve: %s\n" msg;
        exit exit_error
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the checking daemon: an epoll event loop accepts sessions \
          over Unix-domain and TCP sockets, each an independent online \
          checker at its negotiated isolation level.  With \
          $(b,--wal-dir) every accepted frame is write-ahead logged and \
          sessions survive crashes ($(b,kill -9)) and restarts.  Shuts \
          down gracefully (draining in-flight frames) on SIGTERM/SIGINT \
          and dumps service metrics as JSON; SIGHUP checkpoints.  \
          Sessions check in parallel on $(b,--jobs) shard domains.")
    Term.(const run $ listen_arg $ queue_arg $ idle_arg $ jobs_arg
          $ metrics_port_arg $ wal_dir_arg $ wal_sync_arg
          $ snapshot_every_arg $ drain_delay_arg $ gc_arg $ pin_warn_arg
          $ pin_fence_arg $ journal_arg)

let feed_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"HISTORY"
          ~doc:"History file (mtc-history v1 format) to stream.")
  in
  let addr_arg =
    Arg.(
      value
      & opt addr_conv (Server.A_unix "/tmp/mtc.sock")
      & info [ "addr"; "a" ] ~docv:"ADDR"
          ~doc:"Server address: $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Also print the server's metrics snapshot (JSON) afterwards.")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "resume" ] ~docv:"SID"
          ~doc:
            "Re-attach to session $(docv) on a durable server \
             ($(b,mtc serve --wal-dir)) instead of opening a fresh one, \
             and skip every transaction the server already logged (it \
             reports its last durable sequence number).")
  in
  let ack_every_arg =
    Arg.(
      value & opt int 0
      & info [ "ack-every" ] ~docv:"N"
          ~doc:
            "Sync every $(docv) accepted transactions, so progress is \
             acknowledged (and, on a durable server, fsynced) \
             periodically while streaming; 0 syncs only at the end.")
  in
  let gc_arg =
    Arg.(
      value
      & opt (some gc_conv) None
      & info [ "gc-watermark" ] ~docv:"POLICY"
          ~doc:
            (gc_doc
            ^ "  Omit to inherit the server's $(b,--gc-watermark) \
               default."))
  in
  let delay_arg =
    Arg.(
      value & opt float 0.0
      & info [ "delay" ] ~docv:"SECONDS"
          ~doc:
            "Sleep $(docv) between transactions — paces the stream to \
             simulate a slow (or, with a large value, stalled) producer; \
             the knob behind the horizon-pin smoke tests.")
  in
  let strong_level = function
    | Strong l -> Ok l
    | Weak l ->
        Error
          (Printf.sprintf
             "the service checks strong levels only (si|ser|sser), not %s"
             (Weak_checker.level_name l))
  in
  let run file addr level skew timestamps want_stats resume ack_every gc
      delay =
    match (Codec.load file, strong_level level) with
    | Error e, _ ->
        Printf.eprintf "cannot load %s: %s\n" file e;
        exit exit_error
    | _, Error e ->
        Printf.eprintf "%s\n" e;
        exit exit_error
    | Ok h, Ok level -> (
        match Client.connect addr with
        | Error e ->
            Printf.eprintf "cannot connect to %s: %s\n"
              (Server.addr_to_string addr) e;
            exit exit_error
        | Ok c ->
            let finish code =
              if want_stats then
                (match Client.stats c with
                | Ok json -> Printf.printf "server stats: %s\n" json
                | Error e -> Printf.eprintf "stats failed: %s\n" e);
              Client.close c;
              exit code
            in
            Printf.printf "%s\n" (History.stats h);
            let session =
              match resume with
              | None -> (
                  match
                    Client.open_session c ~level ~num_keys:h.History.num_keys
                      ~skew ~ts:timestamps ?gc ()
                  with
                  | Error e -> Error ("cannot open session: " ^ e)
                  | Ok sid ->
                      Printf.printf "session %d opened\n%!" sid;
                      Ok (sid, 0))
              | Some sid -> (
                  match Client.resume_session c ~sid with
                  | Error e ->
                      Error (Printf.sprintf "cannot resume session %d: %s"
                               sid e)
                  | Ok last_seq ->
                      Printf.printf
                        "session %d resumed at seq %d (skipping %d \
                         transactions already logged)\n%!"
                        sid last_seq last_seq;
                      Ok (sid, last_seq))
            in
            (match session with
            | Error e ->
                Printf.eprintf "%s\n" e;
                finish exit_error
            | Ok (sid, resume_from) -> (
                match
                  Client.feed_history ~resume_from ~ack_every ~delay c ~sid h
                with
                | Error e ->
                    Printf.eprintf "feed failed: %s\n" e;
                    finish exit_error
                | Ok (Wire.V_ok n) ->
                    Printf.printf "%s: PASS (%d transactions accepted)\n"
                      (Checker.level_name level) n;
                    finish exit_pass
                | Ok (Wire.V_violation { rendered; _ }) ->
                    print_string rendered;
                    print_newline ();
                    finish exit_violation)))
  in
  Cmd.v
    (Cmd.info "feed" ~exits:verdict_exits
       ~doc:
         "Stream a recorded history to a running $(b,mtc serve) daemon \
          over the binary wire protocol and print the verdict — a true \
          end-to-end black-box check over the network.  Exit codes match \
          $(b,mtc check).  Against a durable server, $(b,--resume SID) \
          continues a session across a server crash or restart.")
    Term.(const run $ file_arg $ addr_arg $ level_arg $ skew_arg
          $ timestamps_arg $ stats_arg $ resume_arg $ ack_every_arg
          $ gc_arg $ delay_arg)

(* ------------------------------------------------------------------ *)
(* mtc stats *)

(* The Stats_reply JSON is a fixed flat shape: an object of numbers and
   one-level nested objects of numbers.  Parse exactly that (no JSON
   dependency) and flatten nested keys with dots for the table. *)
exception Bad_stats_json

let parse_stats_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise Bad_stats_json in
  let expect c = if peek () = c then incr pos else raise Bad_stats_json in
  let parse_string () =
    expect '"';
    let start = !pos in
    while peek () <> '"' do
      incr pos
    done;
    let k = String.sub s start (!pos - start) in
    incr pos;
    k
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then raise Bad_stats_json;
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_object prefix acc =
    expect '{';
    let acc = ref acc in
    let first = ref true in
    while peek () <> '}' do
      if not !first then expect ',';
      first := false;
      let k = parse_string () in
      expect ':';
      let key = if prefix = "" then k else prefix ^ "." ^ k in
      match peek () with
      | '{' -> acc := parse_object key !acc
      | _ -> acc := (key, parse_number ()) :: !acc
    done;
    incr pos;
    !acc
  in
  List.rev (parse_object "" [])

let render_stats_table pairs =
  let width =
    List.fold_left (fun w (k, _) -> Stdlib.max w (String.length k)) 0 pairs
  in
  let b = Buffer.create 512 in
  List.iter
    (fun (k, v) ->
      let value =
        if Float.is_integer v && Float.abs v < 1e15 then
          Printf.sprintf "%d" (int_of_float v)
        else Printf.sprintf "%.3f" v
      in
      Buffer.add_string b (Printf.sprintf "%-*s  %s\n" width k value))
    pairs;
  Buffer.contents b

(* Body of an HTTP response: everything after the first blank line. *)
let http_body response =
  let rec find i =
    if i + 3 >= String.length response then None
    else if
      response.[i] = '\r'
      && response.[i + 1] = '\n'
      && response.[i + 2] = '\r'
      && response.[i + 3] = '\n'
    then Some (String.sub response (i + 4) (String.length response - i - 4))
    else find (i + 1)
  in
  find 0

(* Curl-free HTTP probe for the --metrics-port endpoint. *)
let http_get_metrics port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"
      in
      let rec write_all b off len =
        if len > 0 then begin
          let k = Unix.write fd b off len in
          write_all b (off + k) (len - k)
        end
      in
      write_all (Bytes.of_string req) 0 (String.length req);
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec read_all () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            read_all ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all ()
      in
      read_all ();
      let response = Buffer.contents buf in
      match http_body response with
      | None -> Error "malformed HTTP response (no header terminator)"
      | Some body ->
          if String.length response >= 12 && String.sub response 9 3 = "200"
          then Ok body
          else
            Error
              (Printf.sprintf "HTTP status %s"
                 (String.sub response 9
                    (Stdlib.min 3 (String.length response - 9)))))

(* ------------------------------------------------------------------ *)
(* Per-session telemetry and event-journal rendering — shared by
   `mtc stats --sessions/--events` and `mtc top`. *)

let session_state (s : Wire.session_stat) =
  if s.Wire.ss_poisoned then "poisoned"
  else if s.Wire.ss_pinned then "PINNED"
  else "live"

let render_sessions_table (stats : Wire.session_stat list) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-5s %-5s %-6s %-8s %9s %6s %6s %10s %8s %7s %7s\n"
       "sid" "shard" "level" "state" "frontier" "lag" "queue" "live_w"
       "feeds" "age_s" "idle_s");
  List.iter
    (fun (s : Wire.session_stat) ->
      Buffer.add_string b
        (Printf.sprintf
           "%-5d %-5d %-6s %-8s %9d %6d %6d %10d %8d %7.1f %7.1f\n"
           s.Wire.ss_sid s.Wire.ss_shard
           (Checker.level_name s.Wire.ss_level)
           (session_state s) s.Wire.ss_frontier s.Wire.ss_lag
           s.Wire.ss_queued s.Wire.ss_live_words s.Wire.ss_feeds
           (float_of_int s.Wire.ss_age_ms /. 1e3)
           (float_of_int s.Wire.ss_idle_ms /. 1e3)))
    stats;
  Buffer.contents b

let describe_event (e : Wire.journal_event) =
  let f = Printf.sprintf in
  match e.Wire.je_kind with
  | Obs.Journal.Throttle_on ->
      f "throttle-on sid=%d queued=%d" e.Wire.je_a e.Wire.je_b
  | Obs.Journal.Throttle_off -> f "throttle-off sid=%d" e.Wire.je_a
  | Obs.Journal.Gc_compact ->
      f "gc-compact sid=%d pause=%.2fms reclaimed=%dw" e.Wire.je_a
        (float_of_int e.Wire.je_b /. 1e6)
        e.Wire.je_c
  | Obs.Journal.Wal_fsync_stall ->
      f "wal-fsync-stall %.1fms" (float_of_int e.Wire.je_b /. 1e6)
  | Obs.Journal.Snapshot ->
      f "snapshot shard=%d sessions=%d" e.Wire.je_a e.Wire.je_b
  | Obs.Journal.Session_open ->
      f "open sid=%d shard=%d" e.Wire.je_a e.Wire.je_b
  | Obs.Journal.Session_close ->
      f "close sid=%d reason=%s" e.Wire.je_a (Wire.close_reason_name e.Wire.je_b)
  | Obs.Journal.Session_resume ->
      f "resume sid=%d last_seq=%d" e.Wire.je_a e.Wire.je_b
  | Obs.Journal.Poison -> f "poison sid=%d" e.Wire.je_a
  | Obs.Journal.Pin_warn ->
      f "pin-warn sid=%d stalled=%.1fs live=%dw" e.Wire.je_a
        (float_of_int e.Wire.je_b /. 1e9)
        e.Wire.je_c
  | Obs.Journal.Pin_fence -> f "pin-fence sid=%d" e.Wire.je_a

let render_events (events : Wire.journal_event list) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (e : Wire.journal_event) ->
      Buffer.add_string b
        (Printf.sprintf "%8.1fs ago  dom%-2d  %s\n"
           (float_of_int e.Wire.je_age_ms /. 1e3)
           e.Wire.je_dom (describe_event e)))
    events;
  Buffer.contents b

let stats_cmd =
  let addr_arg =
    Arg.(
      value
      & opt addr_conv (Server.A_unix "/tmp/mtc.sock")
      & info [ "addr"; "a" ] ~docv:"ADDR"
          ~doc:"Server address: $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the raw JSON snapshot instead of the aligned table.")
  in
  let http_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-http" ] ~docv:"PORT"
          ~doc:
            "Fetch http://127.0.0.1:$(docv)/metrics (the Prometheus \
             exposition served by $(b,mtc serve --metrics-port)) and print \
             the body, instead of asking over the wire protocol.")
  in
  let sessions_arg =
    Arg.(
      value & flag
      & info [ "sessions" ]
          ~doc:
            "Print the per-session telemetry table (frontier, watermark \
             lag, queue depth, live words, feed count, age/idle) instead \
             of the process-wide counters.")
  in
  let events_arg =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:
            "Print the tail of the server's structured event journal \
             (throttles, compactions, WAL fsync stalls, snapshots, \
             session opens/closes, pin warnings).")
  in
  let run addr json http sessions events =
    match http with
    | Some port -> (
        match http_get_metrics port with
        | Ok body ->
            print_string body;
            exit exit_pass
        | Error e ->
            Printf.eprintf "metrics fetch failed: %s\n" e;
            exit exit_error
        | exception Unix.Unix_error (e, _, _) ->
            Printf.eprintf "metrics fetch failed: %s\n" (Unix.error_message e);
            exit exit_error)
    | None -> (
        match Client.connect addr with
        | Error e ->
            Printf.eprintf "cannot connect to %s: %s\n"
              (Server.addr_to_string addr) e;
            exit exit_error
        | Ok c ->
            if sessions || events then begin
              let r = Client.session_stats c in
              Client.close c;
              match r with
              | Error e ->
                  Printf.eprintf "session stats failed: %s\n" e;
                  exit exit_error
              | Ok (ss, evs, dropped) ->
                  if sessions then
                    if ss = [] then print_endline "no live sessions"
                    else print_string (render_sessions_table ss);
                  if events then begin
                    if sessions then print_newline ();
                    if evs = [] then print_endline "no journal events"
                    else print_string (render_events evs);
                    if dropped > 0 then
                      Printf.printf
                        "(journal ring overflowed: %d older events dropped)\n"
                        dropped
                  end;
                  exit exit_pass
            end
            else begin
              let r = Client.stats c in
              Client.close c;
              match r with
              | Error e ->
                  Printf.eprintf "stats failed: %s\n" e;
                  exit exit_error
              | Ok body ->
                  if json then print_endline body
                  else (
                    match parse_stats_json body with
                    | pairs -> print_string (render_stats_table pairs)
                    | exception Bad_stats_json ->
                        (* unknown shape: still show the raw payload *)
                        print_endline body);
                  exit exit_pass
            end)
  in
  Cmd.v
    (Cmd.info "stats" ~exits:verdict_exits
       ~doc:
         "Fetch a running daemon's metrics snapshot — over the wire \
          protocol (default, printed as an aligned table or raw JSON with \
          $(b,--json)), or over HTTP from the Prometheus endpoint with \
          $(b,--metrics-http).  $(b,--sessions) and $(b,--events) switch \
          to per-session telemetry and the structured event journal.")
    Term.(const run $ addr_arg $ json_arg $ http_arg $ sessions_arg
          $ events_arg)

(* ------------------------------------------------------------------ *)
(* mtc top — live session view. *)

let top_cmd =
  let addr_arg =
    Arg.(
      value
      & opt addr_conv (Server.A_unix "/tmp/mtc.sock")
      & info [ "addr"; "a" ] ~docv:"ADDR"
          ~doc:"Server address: $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval"; "i" ] ~docv:"SECONDS"
          ~doc:"Refresh interval.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Render a single frame (no screen clearing) and exit — for \
             scripts and smoke tests.")
  in
  let max_rows = 20 in
  let ticker_events = 8 in
  let render ~clear c =
    match Client.session_stats c with
    | Error e -> Error e
    | Ok (ss, evs, dropped) ->
        let b = Buffer.create 4096 in
        if clear then Buffer.add_string b "\027[2J\027[H";
        let pinned =
          List.length (List.filter (fun s -> s.Wire.ss_pinned) ss)
        in
        Buffer.add_string b
          (Printf.sprintf "mtc top — %s — %d sessions%s%s\n\n"
             (Client.server_name c) (List.length ss)
             (if pinned > 0 then Printf.sprintf ", %d PINNED" pinned else "")
             (if dropped > 0 then
                Printf.sprintf " (journal dropped %d)" dropped
              else ""));
        if ss = [] then Buffer.add_string b "no live sessions\n"
        else begin
          (* worst offenders first: sessions holding the GC horizon back *)
          let sorted =
            List.sort
              (fun a b ->
                compare
                  (b.Wire.ss_lag, b.Wire.ss_live_words, a.Wire.ss_sid)
                  (a.Wire.ss_lag, a.Wire.ss_live_words, b.Wire.ss_sid))
              ss
          in
          let shown = List.filteri (fun i _ -> i < max_rows) sorted in
          Buffer.add_string b (render_sessions_table shown);
          if List.length sorted > max_rows then
            Buffer.add_string b
              (Printf.sprintf "… and %d more\n"
                 (List.length sorted - max_rows))
        end;
        (match evs with
        | [] -> ()
        | evs ->
            Buffer.add_string b "\nrecent events:\n";
            let n = List.length evs in
            let tail =
              List.filteri (fun i _ -> i >= n - ticker_events) evs
            in
            Buffer.add_string b (render_events tail));
        print_string (Buffer.contents b);
        flush stdout;
        Ok ()
  in
  let run addr interval once =
    match Client.connect addr with
    | Error e ->
        Printf.eprintf "cannot connect to %s: %s\n"
          (Server.addr_to_string addr) e;
        exit exit_error
    | Ok c ->
        let fail e =
          Client.close c;
          Printf.eprintf "mtc top: %s\n" e;
          exit exit_error
        in
        if once then (
          match render ~clear:false c with
          | Ok () ->
              Client.close c;
              exit exit_pass
          | Error e -> fail e)
        else begin
          let rec loop () =
            match render ~clear:true c with
            | Error e -> fail e
            | Ok () ->
                Unix.sleepf (Float.max 0.05 interval);
                loop ()
          in
          loop ()
        end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running daemon: sessions sorted by watermark \
          lag (the quantity that pins the GC horizon), with queue depth, \
          live words and idle time, plus a ticker of recent journal \
          events.  Refreshes every $(b,--interval) seconds until \
          interrupted; $(b,--once) renders a single frame for scripts.")
    Term.(const run $ addr_arg $ interval_arg $ once_arg)

(* ------------------------------------------------------------------ *)
(* mtc wal-dump — inspect a persistence directory. *)

let wal_dump_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:"Persistence directory of an $(b,mtc serve --wal-dir) run.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Print every WAL record instead of per-session summaries.")
  in
  let dump_entry (e : Wal.entry) =
    let settings = Wal.settings e.state in
    Printf.printf "  session %d: %s, %d keys, last_seq %d, %s\n" e.sid
      (Checker.level_name settings.level)
      settings.num_keys e.last_seq
      (match e.state with
      | Wal.Live online ->
          let gc = settings.gc in
          Printf.sprintf "live (%d txns, %d words live%s)"
            (Online.txns_seen online)
            (Online.live_words online)
            (if gc = Online.Gc_off then ""
             else
               Printf.sprintf ", gc %s: %d runs, %d words reclaimed"
                 (Online.gc_to_string gc)
                 (Online.gc_runs online)
                 (Online.gc_reclaimed_words online))
      | Wal.Poisoned { anomaly; _ } ->
          Printf.sprintf "poisoned%s"
            (match anomaly with Some a -> " [" ^ a ^ "]" | None -> ""))
  in
  let dump_wal verbose path =
    match Wal.read_path path with
    | Error e -> Printf.printf "%s: unreadable: %s\n" (Filename.basename path) e
    | Ok (h, entries, records, tail) ->
        Printf.printf
          "%s: shard %d/%d gen %d next_sid %d, %d sessions checkpointed, %d \
           records%s\n"
          (Filename.basename path) h.Wal.h_shard h.Wal.h_nshards h.Wal.h_gen
          h.Wal.h_next_sid (List.length entries) (List.length records)
          (match tail with
          | Wal.Complete -> ""
          | Wal.Truncated off ->
              Printf.sprintf ", torn tail at byte %d" off
          | Wal.Corrupt { offset; reason } ->
              Printf.sprintf ", CORRUPT at byte %d (%s)" offset reason);
        List.iter dump_entry entries;
        if verbose then
          List.iter
            (fun r ->
              match r with
              | Wal.R_open { sid; settings = s } ->
                  Printf.printf
                    "  open  sid=%d %s num_keys=%d skew=%d ts=%s gc=%s\n" sid
                    (Checker.level_name s.level) s.num_keys s.skew
                    (Ts.mode_name s.ts) (Online.gc_to_string s.gc)
              | Wal.R_feed { sid; seq; txn } ->
                  Printf.printf "  feed  sid=%d seq=%d txn=%d (%d ops)\n" sid
                    seq txn.Txn.id
                    (Array.length txn.Txn.ops)
              | Wal.R_close { sid } -> Printf.printf "  close sid=%d\n" sid)
            records
        else begin
          (* per-session summary: feeds, seq range and GC policy *)
          let tbl = Hashtbl.create 8 in
          List.iter
            (fun r ->
              let touch sid f =
                let cur =
                  Option.value
                    (Hashtbl.find_opt tbl sid)
                    ~default:(None, 0, 0, false)
                in
                Hashtbl.replace tbl sid (f cur)
              in
              match r with
              | Wal.R_open { sid; settings } ->
                  touch sid (fun (_, feeds, mx, closed) ->
                      (Some settings.gc, feeds, mx, closed))
              | Wal.R_feed { sid; seq; _ } ->
                  touch sid (fun (opened, feeds, mx, closed) ->
                      (opened, feeds + 1, Stdlib.max mx seq, closed))
              | Wal.R_close { sid } ->
                  touch sid (fun (opened, feeds, mx, _) ->
                      (opened, feeds, mx, true)))
            records;
          Hashtbl.fold (fun sid v acc -> (sid, v) :: acc) tbl []
          |> List.sort compare
          |> List.iter (fun (sid, (opened, feeds, mx, closed)) ->
                 Printf.printf
                   "  session %d: %s%d feeds, last seq %d%s\n" sid
                   (match opened with
                   | None -> ""
                   | Some Online.Gc_off -> "opened, "
                   | Some gc ->
                       Printf.sprintf "opened (gc %s), "
                         (Online.gc_to_string gc))
                   feeds mx
                   (if closed then ", closed" else ""))
        end
  in
  let run dir verbose =
    let files = Array.to_list (Sys.readdir dir) |> List.sort compare in
    let with_prefix p = List.filter (String.starts_with ~prefix:p) files in
    let snaps = with_prefix "snap-" and wals = with_prefix "wal-" in
    if snaps = [] && wals = [] then begin
      Printf.eprintf "%s: no wal-* files\n" dir;
      exit exit_error
    end;
    List.iter
      (fun f ->
        Printf.printf
          "%s: snapshot file of the older two-file layout, not read\n" f)
      snaps;
    List.iter (fun f -> dump_wal verbose (Filename.concat dir f)) wals;
    exit exit_pass
  in
  Cmd.v
    (Cmd.info "wal-dump"
       ~doc:
         "Inspect an $(b,mtc serve --wal-dir) persistence directory: for \
          each shard generation file, its checkpointed sessions and the \
          write-ahead-log records after them, including torn-tail and \
          corruption diagnostics.")
    Term.(const run $ dir_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* mtc swarm — hold many idle connections open at once. *)

let swarm_cmd =
  let addr_arg =
    Arg.(
      value
      & opt addr_conv (Server.A_unix "/tmp/mtc.sock")
      & info [ "addr"; "a" ] ~docv:"ADDR"
          ~doc:"Server address: $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
  in
  let count_arg =
    Arg.(
      value & opt int 10_000
      & info [ "n" ] ~docv:"COUNT" ~doc:"Connections to open.")
  in
  let hold_arg =
    Arg.(
      value & opt float 2.0
      & info [ "hold" ] ~docv:"SECONDS"
          ~doc:"How long to hold the herd open before closing it.")
  in
  let run addr count hold =
    let t0 = Unix.gettimeofday () in
    let conns = ref [] in
    let opened = ref 0 in
    (try
       for _ = 1 to count do
         match Client.connect addr with
         | Ok c ->
             conns := c :: !conns;
             incr opened
         | Error e -> failwith e
       done
     with Failure e ->
       Printf.eprintf "mtc swarm: connection %d failed: %s\n" (!opened + 1) e);
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "mtc swarm: %d/%d connections open in %.2fs (%.0f conn/s)\n%!"
      !opened count dt
      (float_of_int !opened /. Float.max dt 1e-9);
    (* the server's own view, through one more (briefly-used) connection *)
    (match Client.connect addr with
    | Ok probe ->
        (match Client.stats probe with
        | Ok json -> (
            match
              List.assoc_opt "open_conns" (parse_stats_json json)
            with
            | Some v ->
                Printf.printf "mtc swarm: server reports open_conns=%d\n%!"
                  (int_of_float v)
            | None | (exception Bad_stats_json) -> ())
        | Error _ -> ());
        Client.close probe
    | Error _ -> ());
    if hold > 0.0 then Unix.sleepf hold;
    List.iter Client.close !conns;
    exit (if !opened = count then exit_pass else exit_error)
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:
         "Open $(b,--n) idle connections to a running daemon and hold \
          them — a load probe for the event loop: connections cost file \
          descriptors, not threads.  Exits non-zero if the herd could \
          not be fully established.")
    Term.(const run $ addr_arg $ count_arg $ hold_arg)

(* ------------------------------------------------------------------ *)
(* mtc anomalies *)

let anomalies_cmd =
  let run () =
    List.iter
      (fun kind ->
        Format.printf "%-26s %s@." (Anomaly.name kind)
          (Anomaly.description kind))
      Anomaly.all
  in
  Cmd.v
    (Cmd.info "anomalies"
       ~doc:"List the 14 isolation anomalies of the MT catalogue.")
    Term.(const run $ const ())

let () =
  let doc = "black-box database isolation checking via mini-transactions" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "mtc" ~version:"1.0.0" ~doc ~exits:verdict_exits)
          [
            check_cmd; run_cmd; gen_cmd; hunt_cmd; graph_cmd; anomalies_cmd;
            serve_cmd; feed_cmd; stats_cmd; top_cmd; wal_dump_cmd; swarm_cmd;
          ]))
