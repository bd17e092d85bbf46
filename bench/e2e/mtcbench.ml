(* mtcbench — the out-of-process benchmark of `mtc check` and `mtc serve`.

     mtcbench --mtc PATH --workload NAME|all [--seed N] [--seconds S]
              [--trace 0|1] [--json FILE]
     mtcbench --mtc PATH --smoke --benchmark-json BENCHMARK.json

   The program under test runs as child processes; this process
   generates every input from --seed, drives the service as its only
   client, checks every verdict and prints each metric by name with its
   unit.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  bench/e2e/run.sh
   builds both programs from source and runs this. *)

type kind = Batch of Batch.config | Feed of Feed.config
type workload = { name : string; kind : kind }

(* Why each workload exists is written up in README.md; [div] shrinks
   every size for the smoke. *)
let workloads ~div =
  let sz n = Stdlib.max 1 (n / div) in
  let corpus txns keys dist = { Inputs.txns = sz txns; keys = sz keys; sessions = 16; dist } in
  [
    (* value-path SER on a clean binary corpus: the domain pool's only user *)
    {
      name = "check-ser-1m-bin";
      kind =
        Batch
          {
            corpus = corpus 1_000_000 100_000 Distribution.Uniform;
            format = Inputs.Bin;
            level = Checker.SER;
            ts = Ts.Ignore;
            jobs = 2;
          };
    };
    (* timestamp-verified SI on zipfian text: parse, divergence, chains *)
    {
      name = "check-si-300k-text";
      kind =
        Batch
          {
            corpus = corpus 300_000 30_000 (Distribution.Zipfian Distribution.default_zipf_theta);
            format = Inputs.Text;
            level = Checker.SI;
            ts = Ts.Verify;
            jobs = 1;
          };
    };
    (* bounded memory: Online.add_txn plus watermark GC, no WAL *)
    {
      name = "feed-ser-gc";
      kind =
        Feed
          {
            stream = corpus 100_000 20_000 Distribution.Uniform;
            sessions = 4;
            level = Checker.SER;
            gc = true;
            wal = false;
            rate = 8000.0;
            min_gc_runs = (if div = 1 then 3 else 1);
          };
    };
    (* durable SI: the SI online path and WAL group commit, GC off *)
    {
      name = "feed-si-wal";
      kind =
        Feed
          {
            stream = corpus 200_000 40_000 Distribution.Uniform;
            sessions = 3;
            level = Checker.SI;
            gc = false;
            wal = true;
            rate = 20000.0;
            min_gc_runs = 0;
          };
    };
  ]

(* Every per-layer metric, in print order.  A run emits all of them: a
   layer its workload never enters reads 0. *)
let per_layer_catalogue =
  [
    ("codec.load_ms", "ms"); ("history.unique_ms", "ms"); ("index.build_ms", "ms");
    ("ts.build_ms", "ms"); ("int_check.ms", "ms"); ("divergence.find_ms", "ms");
    ("deps.build_ms", "ms"); ("deps.edges_per_txn", "edges/txn");
    ("checker.compose_ms", "ms"); ("cycle.find_ms", "ms");
    ("codec.load.alloc_mb", "MB"); ("history.unique.alloc_mb", "MB");
    ("index.build.alloc_mb", "MB"); ("deps.build.alloc_mb", "MB");
    ("trace.coverage_pct", "%"); ("trace.overhead_pct", "%");
    ("program.peak_rss_mb", "MB");
    ("client.feed_us_mean", "us"); ("client.throttles", "count");
    ("server.feed_p50_us", "us"); ("server.feed_p99_us", "us");
    ("server.check_share_pct", "%"); ("server.wakeups_per_ktxn", "count/ktxn");
    ("server.queue_high_water", "count"); ("server.gc_runs", "count");
    ("server.gc_pause_p99_ms", "ms"); ("server.gc_pause_max_ms", "ms");
    ("server.live_words", "words"); ("wal.bytes_per_txn", "B/txn");
    ("wal.fsyncs_per_ktxn", "count/ktxn");
    ("client.lag_p99_ms", "ms"); ("client.lag_max_ms", "ms");
    ("client.late_max_ms", "ms"); ("client.probes", "count");
    ("online.add_txn_p50_us", "us"); ("online.add_txn_p99_us", "us");
    ("online.add_txn_max_ms", "ms"); ("online.alloc_words_per_txn", "words/txn");
    ("online.edges_per_txn", "edges/txn"); ("online.gc_runs", "count");
    ("online.gc_pause_max_ms", "ms"); ("online.gc_share_pct", "%");
    ("online.live_words_final", "words");
    ("pearce_kelly.reorders_per_ktxn", "count/ktxn");
  ]

let complete_layers (measured : Measure.metric list) =
  List.iter
    (fun (m : Measure.metric) ->
      if not (List.mem_assoc m.name per_layer_catalogue) then
        failwith ("per-layer metric missing from the catalogue: " ^ m.name))
    measured;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (m : Measure.metric) -> m.name = name) measured with
      | Some m -> m
      | None -> Measure.single name unit 0.0)
    per_layer_catalogue

type result = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  host : Proc.host;
  load_after : float;
  tally : Measure.tally;
  metrics : Measure.metric list;  (** end-to-end, or per-layer when traced *)
  diagnostics : Measure.metric list;  (** printed and recorded, never gated *)
}

(* The correctness gate every run shares: one small faulty history must
   make `mtc check` exit 1 and poison a service session.  A feed
   workload's session runs on its measured server. *)
let run_workload ~mtc ~root ~seed ~seconds ~trace w =
  let host = Proc.host ~root in
  let tally = Measure.tally () in
  let faulty level = Inputs.faulty ~level ~seed in
  let metrics, diagnostics =
    match w.kind with
    | Batch cfg ->
        let setup_s = Batch.setup cfg ~seed ~reps:(if trace then 1 else 3) in
        let h = faulty cfg.level in
        Batch.faulty_check ~mtc tally ~format:cfg.format ~flags:(Batch.flags cfg) h;
        let srv = Serve.start ~mtc [ "--jobs"; "1" ] in
        Serve.faulty_session tally srv ~level:cfg.level h;
        ignore (Serve.stop srv);
        if trace then (complete_layers (Batch.per_layer ~mtc tally cfg ~reps:3), [])
        else
          let runs = Batch.timed_runs ~mtc tally cfg ~seconds in
          (Batch.end_to_end ~setup_s cfg runs, [ Batch.peak_rss runs ])
    | Feed cfg ->
        let h = faulty cfg.level in
        Batch.faulty_check ~mtc tally ~format:Inputs.Text
          ~flags:[ "check"; "--level"; Checker.level_name cfg.level ]
          h;
        let o = Feed.run ~mtc tally cfg ~seed ~seconds ~trace ~faulty:h in
        if trace then (complete_layers (Feed.per_layer tally cfg o), [])
        else (Feed.end_to_end cfg o, Feed.diagnostics o)
  in
  { workload = w.name; seed; seconds; trace; host; load_after = Proc.loadavg (); tally; metrics; diagnostics }

(* ------------------------------------------------------------------ *)
(* Output *)

let fail_ratio r =
  if r.tally.Measure.attempted = 0 then 1.0
  else float_of_int r.tally.Measure.failed /. float_of_int r.tally.Measure.attempted

let print_result r =
  let h = r.host in
  Printf.printf "== %s  seed %d  %gs  %s\n" r.workload r.seed r.seconds
    (if r.trace then "traced (per-layer)" else "untraced (end-to-end)");
  Printf.printf "host: nproc %d  ocaml %s  rev %s  loadavg %.2f -> %.2f%s\n" h.Proc.nproc
    h.Proc.ocaml h.Proc.rev h.Proc.load_before r.load_after
    (if Proc.valid h then "" else "  INVALID: load above nproc at start");
  let line (m : Measure.metric) =
    let n = List.length m.samples in
    if n > 1 then
      let q1, q3 = Measure.quartiles m.samples in
      Printf.printf "  %-32s %14.4f %-10s median of %d, quartiles %.4f .. %.4f\n" m.name m.value
        m.unit n q1 q3
    else Printf.printf "  %-32s %14.4f %s\n" m.name m.value m.unit
  in
  List.iter line r.metrics;
  if r.diagnostics <> [] then print_endline "  diagnostics (not gated):";
  List.iter line r.diagnostics;
  Printf.printf "  %-32s %14.4f %-10s %d failed of %d attempted\n" "fail_ratio" (fail_ratio r)
    "fraction" r.tally.Measure.failed r.tally.Measure.attempted

(* The line the contract reads: exactly these four keys. *)
let result_line r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.tally.Measure.failed = 0));
         ("attempted", Json.Num (float_of_int r.tally.Measure.attempted));
         ("failed", Json.Num (float_of_int r.tally.Measure.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Measure.metric) ->
                  (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
                r.metrics) );
       ])

(* The full record for --json: host, every sample and its quartiles. *)
let record r =
  let metric (m : Measure.metric) =
    let q1, q3 = Measure.quartiles m.samples in
    ( m.name,
      Json.Obj
        [
          ("value", Json.Num m.value); ("unit", Json.Str m.unit);
          ("n", Json.Num (float_of_int (List.length m.samples)));
          ("q1", Json.Num q1); ("q3", Json.Num q3);
          ("samples", Json.Arr (List.map (fun x -> Json.Num x) m.samples));
        ] )
  in
  let h = r.host in
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("seconds", Json.Num r.seconds);
      ("trace", Json.Bool r.trace);
      ( "host",
        Json.Obj
          [
            ("nproc", Json.Num (float_of_int h.Proc.nproc)); ("ocaml", Json.Str h.Proc.ocaml);
            ("rev", Json.Str h.Proc.rev);
            ("loadavg_before", Json.Num h.Proc.load_before);
            ("loadavg_after", Json.Num r.load_after); ("valid", Json.Bool (Proc.valid h));
          ] );
      ("correct", Json.Bool (r.tally.Measure.failed = 0));
      ("attempted", Json.Num (float_of_int r.tally.Measure.attempted));
      ("failed", Json.Num (float_of_int r.tally.Measure.failed));
      ("fail_ratio", Json.Num (fail_ratio r));
      ("failures", Json.Arr (List.rev_map (fun s -> Json.Str s) r.tally.Measure.failures));
      ("metrics", Json.Obj (List.map metric r.metrics));
      ("diagnostics", Json.Obj (List.map metric r.diagnostics));
    ]

(* ------------------------------------------------------------------ *)
(* Smoke: toy sizes, every workload untraced and traced, checked against
   BENCHMARK.json; and the seed contract. *)

let smoke ~mtc ~root ~benchmark_json =
  let problems = ref [] in
  let check ok fmt = Printf.ksprintf (fun m -> if not ok then problems := m :: !problems) fmt in
  let spec = Json.parse (Proc.read_file benchmark_json) in
  let listed key f = List.map f (Json.to_list (Json.member key spec)) in
  let named key =
    List.sort compare
      (listed key (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m))))
  in
  let ws = workloads ~div:50 in
  check
    (listed "workloads" (fun w -> Json.to_str (Json.member "name" w)) = List.map (fun w -> w.name) ws)
    "BENCHMARK.json workloads differ from the runner's";
  (* untraced on seed 1, traced on seed 2: both seeds must pass every check *)
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = run_workload ~mtc ~root ~seed:(if trace then 2 else 1) ~seconds:0.4 ~trace w in
          let mode = if trace then "traced" else "untraced" in
          check (r.tally.Measure.failed = 0) "%s %s: %d of %d checks failed: %s" w.name mode
            r.tally.Measure.failed r.tally.Measure.attempted
            (String.concat "; " r.tally.Measure.failures);
          let emitted =
            List.sort compare (List.map (fun (m : Measure.metric) -> (m.name, m.unit)) r.metrics)
          in
          check
            (emitted = named (if trace then "per_layer" else "end_to_end"))
            "%s %s: emitted metrics differ from BENCHMARK.json" w.name mode)
        [ false; true ])
    ws;
  (* ... and the two seeds must give different inputs *)
  List.iter
    (fun w ->
      let differ =
        match w.kind with
        | Batch cfg ->
            let digest seed =
              Inputs.write_corpus cfg.corpus ~seed ~format:cfg.format "seeded";
              Digest.file "seeded"
            in
            digest 1 <> digest 2
        | Feed cfg -> Inputs.stream cfg.stream ~seed:1 <> Inputs.stream cfg.stream ~seed:2
      in
      check differ "%s: seeds 1 and 2 gave the same input" w.name)
    ws;
  check
    (Inputs.faulty ~level:Checker.SER ~seed:1 <> Inputs.faulty ~level:Checker.SER ~seed:2)
    "seeds 1 and 2 gave the same faulty history";
  match !problems with
  | [] ->
      Printf.printf "mtcbench smoke: OK (%d workloads, each untraced and traced)\n" (List.length ws);
      true
  | ps ->
      List.iter (fun p -> prerr_endline ("mtcbench smoke: " ^ p)) (List.rev ps);
      false

(* ------------------------------------------------------------------ *)

let absolute root p = if Filename.is_relative p then Filename.concat root p else p

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let json = ref "" and mtc = ref "" and do_smoke = ref false in
  let benchmark_json = ref "BENCHMARK.json" in
  let usage = "mtcbench --mtc PATH (--workload NAME|all | --smoke) [options]" in
  Arg.parse
    [
      ("--mtc", Arg.Set_string mtc, "PATH the mtc executable under test");
      ( "--workload", Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map (fun w -> w.name) (workloads ~div:1)) ^ ", or all" );
      ("--seed", Arg.Set_int seed, "N seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 1 reports per-layer metrics instead of end-to-end");
      ("--json", Arg.Set_string json, "FILE also write full records (samples, host) as JSON");
      ("--smoke", Arg.Set do_smoke, " toy sizes, every workload, checked against BENCHMARK.json");
      ("--benchmark-json", Arg.Set_string benchmark_json, "FILE for --smoke (default BENCHMARK.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let root = Sys.getcwd () in
  if !mtc = "" || not (Sys.file_exists (absolute root !mtc)) then (
    prerr_endline ("mtcbench: --mtc must name the mtc executable\n" ^ usage);
    exit 2);
  let mtc = absolute root !mtc in
  let selected =
    match !workload with
    | "all" -> workloads ~div:1
    | name -> List.filter (fun w -> w.name = name) (workloads ~div:1)
  in
  if (not !do_smoke) && selected = [] then (
    prerr_endline ("mtcbench: unknown --workload " ^ !workload ^ "\n" ^ usage);
    exit 2);
  (* all scratch files live in one work directory, removed on exit *)
  let work = Filename.concat (Filename.concat root ".mtcbench") (string_of_int (Unix.getpid ())) in
  let json = if !json = "" then None else Some (absolute root !json) in
  let benchmark_json = absolute root !benchmark_json in
  (try Unix.mkdir (Filename.dirname work) 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir work 0o755;
  at_exit (fun () ->
      Proc.kill_all ();
      Sys.chdir root;
      Proc.rm_rf work;
      try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ());
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  Sys.chdir work;
  if !do_smoke then exit (if smoke ~mtc ~root ~benchmark_json then 0 else 1);
  let write_records records =
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Json.to_string (Json.Arr records));
            output_char oc '\n'))
      json
  in
  match selected with
  | [ w ] ->
      let r = run_workload ~mtc ~root ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) w in
      print_result r;
      print_endline (result_line r);
      write_records [ record r ];
      exit (if r.tally.Measure.failed = 0 then 0 else 1)
  | ws ->
      (* Each workload in a fresh process: a check child's ru_maxrss would
         otherwise start from the peak an earlier workload left here. *)
      let runs =
        List.map
          (fun w ->
            let part = Filename.concat work (w.name ^ ".json") in
            let args =
              [ "--mtc"; mtc; "--workload"; w.name; "--seed"; string_of_int !seed;
                "--seconds"; Printf.sprintf "%.17g" !seconds; "--trace"; string_of_int !trace;
                "--json"; part ]
            in
            let exe = Sys.executable_name in
            let pid =
              Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stdout
                Unix.stderr
            in
            Proc.live := pid :: !Proc.live;
            let ok = (Proc.wait pid).Proc.code = 0 in
            (ok, try Json.to_list (Json.parse (Proc.read_file part)) with Sys_error _ -> []))
          ws
      in
      write_records (List.concat_map snd runs);
      exit (if List.for_all fst runs then 0 else 1)
