(* Integration tests for mtc.runner: Intern, Scheduler, Endtoend —
   the full generate → execute → verify pipeline of paper Figure 2. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_intern () =
  let t = Intern.create () in
  Alcotest.check (Alcotest.list Alcotest.int) "empty" []
    (Intern.get t Intern.empty_id);
  let id = Intern.put t [ 1; 2; 3 ] in
  checkb "fresh id" true (id <> Intern.empty_id);
  Alcotest.check (Alcotest.list Alcotest.int) "stored" [ 1; 2; 3 ]
    (Intern.get t id)

let run_mt ?(fault = Fault.No_fault) ?(level = Isolation.Snapshot)
    ?(num_txns = 300) ?(num_keys = 10) ?(seed = 1) () =
  let spec = Mt_gen.generate { Mt_gen.default with num_txns; num_keys; seed } in
  let db = { Db.level; fault; num_keys; seed } in
  Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ()

let test_scheduler_commits_everything () =
  let r = run_mt () in
  checki "all txns commit eventually" 300 r.Scheduler.committed;
  checki "no give-ups" 0 r.Scheduler.gave_up

let test_scheduler_history_well_formed () =
  let r = run_mt () in
  checkb "valid MT history" true
    (History.validate r.Scheduler.history = Ok ())

let test_scheduler_timestamps_sane () =
  let r = run_mt () in
  Array.iter
    (fun (t : Txn.t) ->
      if t.Txn.id <> History.init_id then
        checkb "start <= commit" true (t.Txn.start_ts <= t.Txn.commit_ts))
    r.Scheduler.history.History.txns

let test_scheduler_attempt_accounting () =
  let r = run_mt ~num_keys:4 ~num_txns:500 () in
  let aborted_in_history =
    Array.fold_left
      (fun n (t : Txn.t) -> if t.Txn.status = Txn.Aborted then n + 1 else n)
      0 r.Scheduler.history.History.txns
  in
  checki "attempts = committed + aborted" r.Scheduler.attempts
    (r.Scheduler.committed + aborted_in_history);
  checkb "abort rate in [0,1]" true
    (Scheduler.abort_rate r >= 0.0 && Scheduler.abort_rate r <= 1.0)

let test_scheduler_deterministic () =
  let a = run_mt ~seed:9 () and b = run_mt ~seed:9 () in
  checkb "same histories" true
    (Codec.to_string a.Scheduler.history = Codec.to_string b.Scheduler.history)

let test_scheduler_sser_progress () =
  (* Heavy contention under 2PL must still terminate (wound-wait). *)
  let r =
    run_mt ~level:Isolation.Strict_serializable ~num_keys:2 ~num_txns:300 ()
  in
  checkb "most txns commit" true (r.Scheduler.committed > 250)

let test_scheduler_elle_log_present () =
  let spec = Append_gen.generate { Append_gen.default with num_txns = 100 } in
  let db =
    { Db.level = Isolation.Snapshot; fault = Fault.No_fault; num_keys = 10; seed = 3 }
  in
  let r = Scheduler.run ~db ~spec () in
  match r.Scheduler.elle with
  | Some log ->
      checki "one log entry per attempt" r.Scheduler.attempts
        (List.length log.Elle_log.txns)
  | None -> Alcotest.fail "append workload must produce an elle log"

let test_scheduler_elle_reads_are_lists () =
  let spec = Append_gen.generate { Append_gen.default with num_txns = 150; seed = 4 } in
  let db =
    { Db.level = Isolation.Snapshot; fault = Fault.No_fault; num_keys = 10; seed = 4 }
  in
  let r = Scheduler.run ~db ~spec () in
  let log = Option.get r.Scheduler.elle in
  (* every element of every committed read-list was appended by somebody *)
  let appended = Hashtbl.create 64 in
  List.iter
    (fun (t : Elle_log.txn) ->
      List.iter
        (function
          | Elle_log.Append (k, e) -> Hashtbl.replace appended (k, e) ()
          | Elle_log.Read_list _ -> ())
        t.Elle_log.ops)
    log.Elle_log.txns;
  List.iter
    (fun (t : Elle_log.txn) ->
      List.iter
        (function
          | Elle_log.Read_list (k, l) ->
              List.iter
                (fun e -> checkb "element has appender" true (Hashtbl.mem appended (k, e)))
                l
          | Elle_log.Append _ -> ())
        t.Elle_log.ops)
    (Elle_log.committed log)

let test_scheduler_rejects_append_under_2pl () =
  let spec = Append_gen.generate { Append_gen.default with num_txns = 10 } in
  let db =
    { Db.level = Isolation.Strict_serializable; fault = Fault.No_fault;
      num_keys = 10; seed = 1 }
  in
  checkb "raises" true
    (try
       ignore (Scheduler.run ~db ~spec ());
       false
     with Invalid_argument _ -> true)

(* --- Endtoend --- *)

let test_e2e_measure_clean () =
  let spec = Mt_gen.generate { Mt_gen.default with num_txns = 200; num_keys = 10 } in
  let db =
    { Db.level = Isolation.Snapshot; fault = Fault.No_fault; num_keys = 10; seed = 2 }
  in
  let m =
    Endtoend.measure ~db ~spec ~verify:(Endtoend.mtc_verify Checker.SI) ()
  in
  checkb "passes" true (m.Endtoend.verdict = Endtoend.V_pass);
  checkb "times nonneg" true (m.Endtoend.gen_s >= 0.0 && m.Endtoend.verify_s >= 0.0);
  checki "committed" 200 m.Endtoend.committed

let test_e2e_measure_faulty () =
  let spec = Mt_gen.generate { Mt_gen.default with num_txns = 500; num_keys = 5 } in
  let db =
    { Db.level = Isolation.Snapshot; fault = Fault.Lost_update 0.5; num_keys = 5; seed = 2 }
  in
  let m =
    Endtoend.measure ~db ~spec ~verify:(Endtoend.mtc_verify Checker.SI) ()
  in
  checkb "fails" true (match m.Endtoend.verdict with Endtoend.V_fail _ -> true | _ -> false)

let test_e2e_hunt_finds_bug () =
  let make_spec ~seed =
    Mt_gen.generate { Mt_gen.default with num_txns = 400; num_keys = 5; seed }
  in
  let db =
    { Db.level = Isolation.Snapshot; fault = Fault.Lost_update 0.3; num_keys = 5; seed = 1 }
  in
  let h = Endtoend.hunt ~db ~make_spec ~level:Checker.SI ~max_trials:10 () in
  checkb "found" true (h.Endtoend.violation <> None);
  checkb "position recorded" true (h.Endtoend.ce_position <> None)

let test_e2e_hunt_clean_gives_up () =
  let make_spec ~seed =
    Mt_gen.generate { Mt_gen.default with num_txns = 100; num_keys = 10; seed }
  in
  let db =
    { Db.level = Isolation.Snapshot; fault = Fault.No_fault; num_keys = 10; seed = 1 }
  in
  let h = Endtoend.hunt ~db ~make_spec ~level:Checker.SI ~max_trials:3 () in
  checkb "nothing found" true (h.Endtoend.violation = None);
  checki "all trials used" 3 h.Endtoend.trials

let test_e2e_gt_workload_cobra () =
  (* GT histories from a serializable engine pass Cobra (the polygraph
     checker at SER). *)
  let spec =
    Gt_gen.generate { Gt_gen.default with num_txns = 150; ops_per_txn = 6; num_keys = 20 }
  in
  let db =
    { Db.level = Isolation.Serializable; fault = Fault.No_fault; num_keys = 20; seed = 5 }
  in
  let r = Scheduler.run ~db ~spec () in
  checkb "cobra accepts" true
    (Polygraph.check ~level:Checker.SER r.Scheduler.history).Polygraph.ok

let suite =
  [
    ("intern basics", `Quick, test_intern);
    ("scheduler: commits everything", `Quick, test_scheduler_commits_everything);
    ("scheduler: history well-formed MT", `Quick, test_scheduler_history_well_formed);
    ("scheduler: timestamps sane", `Quick, test_scheduler_timestamps_sane);
    ("scheduler: attempt accounting", `Quick, test_scheduler_attempt_accounting);
    ("scheduler: deterministic", `Quick, test_scheduler_deterministic);
    ("scheduler: 2PL progress under contention", `Quick, test_scheduler_sser_progress);
    ("scheduler: elle log present", `Quick, test_scheduler_elle_log_present);
    ("scheduler: elle reads are real lists", `Quick, test_scheduler_elle_reads_are_lists);
    ("scheduler: append under 2PL rejected", `Quick, test_scheduler_rejects_append_under_2pl);
    ("endtoend: clean measurement", `Quick, test_e2e_measure_clean);
    ("endtoend: faulty measurement", `Quick, test_e2e_measure_faulty);
    ("endtoend: hunt finds injected bug", `Quick, test_e2e_hunt_finds_bug);
    ("endtoend: hunt on clean engine", `Quick, test_e2e_hunt_clean_gives_up);
    ("endtoend: GT + Cobra integration", `Quick, test_e2e_gt_workload_cobra);
  ]
