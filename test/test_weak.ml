(* Tests for Weak_checker: READ COMMITTED, READ ATOMIC and CAUSAL over MT
   histories (the paper's future-work extension). *)

let checkb = Alcotest.check Alcotest.bool

open Builder

let all_levels =
  [ Weak_checker.Read_committed; Weak_checker.Read_atomic; Weak_checker.Causal ]

(* Expected verdicts of the Figure 5 catalogue per weak level. *)
let expected kind (level : Weak_checker.level) =
  if Anomaly.intra kind then false
  else
    match (kind, level) with
    | (Anomaly.Long_fork | Anomaly.Lost_update | Anomaly.Write_skew), _ -> true
    | ( (Anomaly.Session_guarantee_violation | Anomaly.Causality_violation),
        (Weak_checker.Read_committed | Weak_checker.Read_atomic) ) ->
        true
    | (Anomaly.Session_guarantee_violation | Anomaly.Causality_violation),
      Weak_checker.Causal ->
        false
    | ( (Anomaly.Non_monotonic_read | Anomaly.Fractured_read),
        Weak_checker.Read_committed ) ->
        true
    | (Anomaly.Non_monotonic_read | Anomaly.Fractured_read),
      (Weak_checker.Read_atomic | Weak_checker.Causal) ->
        false
    | _ -> false (* intra kinds, matched above *)

let test_catalogue () =
  List.iter
    (fun kind ->
      let h = Anomaly.history kind in
      List.iter
        (fun level ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "%s at %s" (Anomaly.name kind)
               (Weak_checker.level_name level))
            (expected kind level)
            (Weak_checker.passes (Weak_checker.check level h)))
        all_levels)
    Anomaly.all

let test_g1c_cycle () =
  (* Mutual reads-from: T1 reads T2's write and vice versa — a pure
     WR-cycle that RC must reject even though the INT screen passes. *)
  let h =
    history ~keys:2 ~sessions:2
      [
        txn ~session:1 [ r 0 0; w 0 1; r 1 4 ];
        txn ~session:2 [ r 1 0; w 1 4; r 0 1 ];
      ]
  in
  (match Weak_checker.check_rc h with
  | Weak_checker.Fail (Weak_checker.G1c_cycle _) -> ()
  | _ -> Alcotest.fail "expected a G1c cycle");
  checkb "SER agrees" false (Checker.passes (Checker.check_ser h))

let test_hb_cycle_witness () =
  (* Two future reads, one per session: each reads the value its session
     successor writes, so hb = (SO ∪ WR)+ has two cycles while WR ∪ WW
     stays acyclic — RC and RA pass and only CC's hb check fires.  The
     exact rendering pins which cycle is reported and its rotation. *)
  let h =
    history ~keys:2 ~sessions:2
      [
        txn ~session:1 [ r 1 30 ];
        txn ~session:1 [ r 1 0; w 1 30 ];
        txn ~session:2 [ r 0 20 ];
        txn ~session:2 [ r 0 0; w 0 20 ];
      ]
  in
  checkb "RC passes" true (Weak_checker.passes (Weak_checker.check_rc h));
  checkb "RA passes" true (Weak_checker.passes (Weak_checker.check_ra h));
  match Weak_checker.check_causal h with
  | Weak_checker.Fail (Weak_checker.Hb_cycle _ as v) ->
      Alcotest.(check string)
        "witness" "cyclic causal order: T1 -SO-> T2; T2 -WR(x1)-> T1;"
        (Format.asprintf "%a" Weak_checker.pp_violation v)
  | Weak_checker.Fail v ->
      Alcotest.failf "wrong violation: %s"
        (Format.asprintf "%a" Weak_checker.pp_violation v)
  | Weak_checker.Pass -> Alcotest.fail "hb cycle passed CC"

let test_fractured_payload () =
  match Weak_checker.check_ra (Anomaly.history Anomaly.Fractured_read) with
  | Weak_checker.Fail (Weak_checker.Fractured { reader = 2; writer = 1; _ }) ->
      ()
  | Weak_checker.Fail v ->
      Alcotest.failf "wrong violation: %s"
        (Format.asprintf "%a" Weak_checker.pp_violation v)
  | Weak_checker.Pass -> Alcotest.fail "fractured read passed RA"

let test_causality_payload () =
  match
    Weak_checker.check_causal (Anomaly.history Anomaly.Causality_violation)
  with
  | Weak_checker.Fail
      (Weak_checker.Causality { reader = 3; missed_writer = 1; stale_key = 0 })
    ->
      ()
  | Weak_checker.Fail v ->
      Alcotest.failf "wrong violation: %s"
        (Format.asprintf "%a" Weak_checker.pp_violation v)
  | Weak_checker.Pass -> Alcotest.fail "causality violation passed CC"

let test_session_guarantee_is_causal_only () =
  let h = Anomaly.history Anomaly.Session_guarantee_violation in
  checkb "RA passes" true (Weak_checker.passes (Weak_checker.check_ra h));
  match Weak_checker.check_causal h with
  | Weak_checker.Fail (Weak_checker.Causality { missed_writer = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected a causality violation on the own session"

let test_blind_write_rejected () =
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Write (0, 1) ] in
  let h = History.make ~num_keys:1 ~num_sessions:1 [ t1 ] in
  match Weak_checker.check_ra h with
  | Weak_checker.Fail (Weak_checker.Malformed _) -> ()
  | _ -> Alcotest.fail "blind writes are not MT histories"

let test_empty_history () =
  let h = history ~keys:2 ~sessions:1 [] in
  List.iter
    (fun level ->
      checkb "empty passes" true (Weak_checker.passes (Weak_checker.check level h)))
    all_levels

let test_long_chain_passes () =
  let txns =
    List.init 50 (fun i -> txn ~session:1 [ r 0 i; w 0 (i + 1) ])
  in
  let h = history ~keys:1 ~sessions:1 txns in
  List.iter
    (fun level ->
      checkb "chain passes" true
        (Weak_checker.passes (Weak_checker.check level h)))
    all_levels

let run_engine ~level ~fault ~seed =
  let spec =
    Mt_gen.generate { Mt_gen.default with num_txns = 300; num_keys = 10; seed }
  in
  let db = { Db.level; fault; num_keys = 10; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

let test_engine_lattice () =
  (* SI pass => CC pass => RA pass => RC pass on engine histories, clean
     and faulty. *)
  List.iter
    (fun fault ->
      for seed = 1 to 3 do
        let h = run_engine ~level:Isolation.Snapshot ~fault ~seed in
        let si = Checker.passes (Checker.check_si h) in
        let cc = Weak_checker.passes (Weak_checker.check_causal h) in
        let ra = Weak_checker.passes (Weak_checker.check_ra h) in
        let rc = Weak_checker.passes (Weak_checker.check_rc h) in
        checkb "SI => CC" true ((not si) || cc);
        checkb "CC => RA" true ((not cc) || ra);
        checkb "RA => RC" true ((not ra) || rc)
      done)
    [ Fault.No_fault; Fault.Lost_update 0.2; Fault.Causality_violation 0.1;
      Fault.Aborted_read 0.1 ]

let test_rc_engine_passes_rc () =
  for seed = 1 to 3 do
    let h = run_engine ~level:Isolation.Read_committed ~fault:Fault.No_fault ~seed in
    checkb "RC engine passes RC" true
      (Weak_checker.passes (Weak_checker.check_rc h))
  done

let test_causality_fault_breaks_cc_not_rc () =
  let spec = Targeted.observers ~keys:8 ~txns:1500 ~seed:4 () in
  let db =
    { Db.level = Isolation.Snapshot; fault = Fault.Causality_violation 0.1;
      num_keys = 8; seed = 4 }
  in
  let h = (Scheduler.run ~db ~spec ()).Scheduler.history in
  checkb "RC still passes" true (Weak_checker.passes (Weak_checker.check_rc h));
  checkb "CC broken" false (Weak_checker.passes (Weak_checker.check_causal h))

let suite =
  [
    ("weak verdicts of the 14-anomaly catalogue", `Quick, test_catalogue);
    ("G1c cycle rejected at RC", `Quick, test_g1c_cycle);
    ("CC hb-cycle witness", `Quick, test_hb_cycle_witness);
    ("fractured-read payload", `Quick, test_fractured_payload);
    ("causality payload", `Quick, test_causality_payload);
    ("session guarantee fails only CC", `Quick, test_session_guarantee_is_causal_only);
    ("blind writes rejected", `Quick, test_blind_write_rejected);
    ("empty history passes", `Quick, test_empty_history);
    ("long RMW chain passes", `Quick, test_long_chain_passes);
    ("engine lattice SI => CC => RA => RC", `Quick, test_engine_lattice);
    ("RC engine passes RC", `Quick, test_rc_engine_passes_rc);
    ("causality fault breaks CC not RC", `Quick, test_causality_fault_breaks_cc_not_rc);
  ]
