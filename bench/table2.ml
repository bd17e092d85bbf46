(* Table II + Figures 12/18: rediscovering the six production isolation
   bugs.  Each row replays one bug class through the engine's
   fault-injection mode with a workload shaped to surface that anomaly,
   then reports the counterexample position and the generation /
   verification times, as in the paper's Table II. *)

(* The anomaly-targeted workload templates live in the public API
   (Targeted): RMW contention for LOSTUPDATE/ABORTEDREAD, disjoint writers
   + observers for visibility anomalies, read-pair-write-one for
   WRITESKEW. *)
let contended_spec ~keys ~txns ~seed = Targeted.contended ~keys ~txns ~seed ()
let observer_spec ~keys ~txns ~seed = Targeted.observers ~keys ~txns ~seed ()
let write_skew_spec ~keys ~txns ~seed = Targeted.write_skew ~keys ~txns ~seed ()

type bug = {
  b_level : Checker.level;
  b_anomaly : string;
  b_database : string;
  b_db_level : Isolation.level;
  b_fault : Fault.mode;
  b_spec : seed:int -> Spec.t;
}

let bugs =
  [
    {
      b_level = Checker.SI;
      b_anomaly = "LostUpdate";
      b_database = "MariaDB-Galera-10.7.3 (sim)";
      b_db_level = Isolation.Snapshot;
      b_fault = Fault.Lost_update 0.05;
      b_spec = (fun ~seed -> contended_spec ~keys:20 ~txns:(Bench_util.scale 800) ~seed);
    };
    {
      b_level = Checker.SI;
      b_anomaly = "AbortedRead";
      b_database = "MongoDB-4.2.6 (sim)";
      b_db_level = Isolation.Snapshot;
      b_fault = Fault.Aborted_read 0.1;
      b_spec = (fun ~seed -> contended_spec ~keys:15 ~txns:(Bench_util.scale 800) ~seed);
    };
    {
      b_level = Checker.SI;
      b_anomaly = "CausalityViolation";
      b_database = "Dgraph-1.1.1 (sim)";
      b_db_level = Isolation.Snapshot;
      b_fault = Fault.Causality_violation 0.05;
      (* Not scaled under --smoke: the first violation sits at CE
         position ~1065, out of reach of a 60-txn smoke run. *)
      b_spec = (fun ~seed -> observer_spec ~keys:8 ~txns:1200 ~seed);
    };
    {
      b_level = Checker.SER;
      b_anomaly = "WriteSkew";
      b_database = "PostgreSQL-12.3 (sim)";
      b_db_level = Isolation.Serializable;
      b_fault = Fault.Write_skew 0.3;
      b_spec = (fun ~seed -> write_skew_spec ~keys:8 ~txns:(Bench_util.scale 1000) ~seed);
    };
    {
      b_level = Checker.SER;
      b_anomaly = "LongFork";
      b_database = "PostgreSQL-11.8 (sim)";
      b_db_level = Isolation.Serializable;
      b_fault = Fault.Long_fork 0.2;
      b_spec = (fun ~seed -> observer_spec ~keys:8 ~txns:(Bench_util.scale 1200) ~seed);
    };
  ]

let hunt_bug b =
  let db = { Db.level = b.b_db_level; fault = b.b_fault; num_keys = 0; seed = 97 } in
  (* num_keys is taken from the spec at run time. *)
  let make_spec ~seed =
    let s = b.b_spec ~seed in
    s
  in
  let db = { db with Db.num_keys = (make_spec ~seed:1).Spec.num_keys } in
  let max_trials = if !Bench_util.smoke then 4 else 20 in
  (* The hunt itself fans trials out over the bench parallelism degree;
     verdict and CE position are jobs-invariant. *)
  Endtoend.hunt ~jobs:(Bench_util.jobs ()) ~db ~make_spec ~level:b.b_level
    ~max_trials ()

(* The Cassandra LWT bug goes through the synthetic LWT generator and
   VL-LWT (linearizability = SSER for LWTs). *)
let hunt_cassandra () =
  let params =
    { Lwt_gen.num_sessions = 10; txns_per_session = Bench_util.scale 80;
      num_keys = 4;
      concurrent_pct = 0.3; read_pct = 0.1; seed = 11;
      inject = Lwt_gen.Phantom_write }
  in
  let h, gen_s = Stats.time_it (fun () -> Lwt_gen.generate params) in
  let res, verify_s = Stats.time_it (fun () -> Lwt_checker.check h) in
  (h, res, gen_s, verify_s)

let run ?(show_counterexamples = true) () =
  Bench_util.section "Table II: rediscovered isolation bugs";
  let header =
    [ "level"; "anomaly"; "database"; "detected as"; "CE pos"; "gen (s)";
      "verify (s)" ]
  in
  let ces = ref [] in
  let rows =
    List.map
      (fun b ->
        let h = hunt_bug b in
        let found =
          match h.Endtoend.violation with
          | Some text ->
              ces := (b.b_database, text) :: !ces;
              Option.value h.Endtoend.anomaly ~default:"violation"
          | None -> "NOT FOUND"
        in
        [
          Checker.level_name b.b_level;
          b.b_anomaly;
          b.b_database;
          found;
          (match h.Endtoend.ce_position with
          | Some p -> string_of_int p
          | None -> "-");
          Printf.sprintf "%.2f" h.Endtoend.hunt_gen_s;
          Printf.sprintf "%.4f" h.Endtoend.hunt_verify_s;
        ])
      bugs
  in
  let _, cass_res, cass_gen, cass_verify = hunt_cassandra () in
  let cass_row =
    [
      "SSER";
      "AbortedRead";
      "Cassandra-2.0.1 (sim, LWT)";
      (match cass_res with Ok () -> "NOT FOUND" | Error _ -> "AbortedRead");
      "-";
      Printf.sprintf "%.2f" cass_gen;
      Printf.sprintf "%.4f" cass_verify;
    ]
  in
  (match cass_res with
  | Error r ->
      ces :=
        ("Cassandra-2.0.1 (sim, LWT)",
         Format.asprintf "SSER/LIN violation: %a@." Lwt_checker.pp_reason r)
        :: !ces
  | Ok () -> ());
  let all_rows = rows @ [ cass_row ] in
  Bench_util.print_table ~header all_rows;
  (* The gate: every row must be detected as its own anomaly. *)
  List.iter
    (function
      | _ :: anomaly :: database :: found :: _ when found <> anomaly ->
          Bench_util.miss "table2: %s detected as %s, want %s" database found
            anomaly
      | _ -> ())
    all_rows;
  if show_counterexamples then begin
    Bench_util.section "Figures 12/18: counterexamples for the rediscovered bugs";
    List.iter
      (fun (dbname, text) -> Printf.printf "\n[%s]\n%s" dbname text)
      (List.rev !ces)
  end
