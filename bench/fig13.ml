(* Figures 13 + 14: bug-detection effectiveness and end-to-end time of MTC
   vs Elle on buggy engines — "pg" (PostgreSQL-12.3-like: SSI disabled
   with some probability) and "mongo" (MongoDB-4.2.6-like: aborted writes
   leak).  Each trial runs a workload until ~[txns] transactions commit
   and checks the result; we count detecting trials (Figure 13) and track
   mean generation/verification times (Figure 14).

   Workloads per the paper: "mini" (MT, max 4 ops -> MTC), "append"
   (list-append -> Elle), "wr" (read-write registers -> Elle), the latter
   two with max_txn_len in {2,4,8,16}; 10 objects, exponential access
   distribution. *)

type outcome = { detected : int; trials : int; gen_s : float; verify_s : float }

let trials_per_config () = if !Bench_util.smoke then 2 else 10
let txns_per_trial () = if !Bench_util.smoke then 100 else 400

let run_trial ~db ~spec ~check ~seed =
  let db = { db with Db.seed = db.Db.seed + (1000 * seed) } in
  let sched = { Scheduler.default_params with seed } in
  let r, gen_s =
    Stats.time_it (fun () -> Scheduler.run ~params:sched ~db ~spec ())
  in
  let found, verify_s = Stats.time_it (fun () -> check r) in
  (found, gen_s, verify_s)

let run_config ~db ~make_spec ~check =
  let trials = trials_per_config () in
  let detected = ref 0 and gen = ref 0.0 and verify = ref 0.0 in
  for seed = 1 to trials do
    let found, g, v = run_trial ~db ~spec:(make_spec ~seed) ~check ~seed in
    if found then incr detected;
    gen := !gen +. g;
    verify := !verify +. v
  done;
  {
    detected = !detected;
    trials;
    gen_s = !gen /. float_of_int trials;
    verify_s = !verify /. float_of_int trials;
  }

let mini_spec ~seed =
  Mt_gen.generate
    { Mt_gen.num_sessions = 10; num_txns = txns_per_trial (); num_keys = 10;
      dist = Distribution.Exponential 1.0; seed }

let append_spec ~len ~seed =
  Append_gen.generate
    { Append_gen.num_sessions = 10; num_txns = txns_per_trial (); num_keys = 10;
      max_txn_len = len; registers = false;
      dist = Distribution.Exponential 1.0; seed }

let wr_spec ~len ~seed =
  Append_gen.generate
    { Append_gen.num_sessions = 10; num_txns = txns_per_trial (); num_keys = 10;
      max_txn_len = len; registers = true;
      dist = Distribution.Exponential 1.0; seed }

let check_mtc level (r : Scheduler.result) =
  not (Checker.passes (Checker.check level r.Scheduler.history))

let check_elle_append level (r : Scheduler.result) =
  match r.Scheduler.elle with
  | Some log -> not (Elle.check_append ~level log).Elle.ok
  | None -> false

let check_elle_wr level (r : Scheduler.result) =
  not (Elle.check_registers ~level r.Scheduler.history).Elle.ok

let lens () = Bench_util.sweep [ 2; 4; 8; 16 ]

(* [smoke_floor] is each smoke row's detection count as recorded in
   BENCH_PR10.json: under --smoke, a row that detects fewer trials is a
   gate miss, the way Table 2 gates a lost detection. *)
let run_engine ~engine_name ~db ~level ~smoke_floor =
  Bench_util.subsection
    (Printf.sprintf "%s: detections out of %d trials (%d committed txns each)"
       engine_name (trials_per_config ()) (txns_per_trial ()));
  let configs =
    ("mini (MTC, len<=4)", (fun ~seed -> mini_spec ~seed), check_mtc level)
    :: List.map
         (fun len ->
           ( Printf.sprintf "append len<=%d (Elle)" len,
             (fun ~seed -> append_spec ~len ~seed),
             check_elle_append level ))
         (lens ())
    @ List.map
        (fun len ->
          ( Printf.sprintf "wr len<=%d (Elle)" len,
            (fun ~seed -> wr_spec ~len ~seed),
            check_elle_wr level ))
        (lens ())
  in
  (* Each config is an independent (seeded) batch of trials: fan the
     configs out over the bench pool. *)
  let results =
    Bench_util.par_map
      (fun (name, make_spec, check) ->
        (name, run_config ~db ~make_spec ~check))
      configs
  in
  Bench_util.print_table
    ~header:[ "workload"; "detected"; "gen avg (ms)"; "verify avg (ms)" ]
    (List.map
       (fun (name, o) ->
         [
           name;
           Printf.sprintf "%d/%d" o.detected o.trials;
           Bench_util.ms o.gen_s;
           Bench_util.ms o.verify_s;
         ])
       results);
  if !Bench_util.smoke then
    List.iter
      (fun (name, o) ->
        match List.assoc_opt name smoke_floor with
        | Some floor when o.detected < floor ->
            Bench_util.miss "fig13: %s, %s detected %d/%d, want at least %d"
              engine_name name o.detected o.trials floor
        | _ -> ())
      results

let run () =
  Bench_util.section
    "Figures 13+14: detection effectiveness and end-to-end time, MTC vs Elle";
  run_engine ~engine_name:"pg (SER engine, write-skew bug)"
    ~db:{ Db.level = Isolation.Serializable; fault = Fault.Write_skew 0.2;
          num_keys = 10; seed = 131 }
    ~level:Checker.SER
    ~smoke_floor:
      [ ("mini (MTC, len<=4)", 1); ("append len<=2 (Elle)", 1);
        ("wr len<=2 (Elle)", 0) ];
  run_engine ~engine_name:"mongo (SI engine, aborted-read bug)"
    ~db:{ Db.level = Isolation.Snapshot; fault = Fault.Aborted_read 0.03;
          num_keys = 10; seed = 132 }
    ~level:Checker.SI
    ~smoke_floor:
      [ ("mini (MTC, len<=4)", 2); ("append len<=2 (Elle)", 1);
        ("wr len<=2 (Elle)", 1) ]
