(* Tests for mtc.baselines: the polygraph checker (Cobra at SER, PolySI
   at SI) and its pruning, Porcupine, Elle and dbcop — including
   cross-validation against MTC's own checkers. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

open Builder

(* --- Polygraph --- *)

let test_polygraph_known_edges () =
  let h =
    history ~keys:1 ~sessions:2
      [ txn ~session:1 [ r 0 0; w 0 1 ]; txn ~session:2 [ r 0 1 ] ]
  in
  match Polygraph.build h with
  | Ok pg ->
      (* SO: init->T1, init->T2; WR: init->T1(x), T1->T2(x). *)
      checkb "wr t1->t2" true
        (List.mem (Polygraph.Dep, 1, 2) pg.Polygraph.known);
      (* Writers of x: init, T1 -> one constraint. *)
      checki "one constraint" 1 (Polygraph.num_constraints pg)
  | Error _ -> Alcotest.fail "build failed"

let test_polygraph_screens_intra () =
  match Polygraph.build (Anomaly.history Anomaly.Aborted_read) with
  | Error (Polygraph.Screen _) -> ()
  | _ -> Alcotest.fail "aborted read must be screened"

(* T1 and T2 both write 1 to x0, and T3 reads it: the reads-from edge
   is not determined by the value, so every baseline must refuse the
   history with the duplicate screen's message, as MTC does. *)
let duplicate_value_history () =
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Write (0, 1) ] in
  let t2 = Txn.make ~id:2 ~session:2 [ Op.Write (0, 1) ] in
  let t3 = Txn.make ~id:3 ~session:3 [ Op.Read (0, 1) ] in
  let h = History.make ~num_keys:1 ~num_sessions:3 [ t1; t2; t3 ] in
  match History.unique_values h with
  | Error msg -> (h, msg)
  | Ok () -> Alcotest.fail "the duplicate screen must flag the history"

let test_polygraph_duplicate_values () =
  let h, msg = duplicate_value_history () in
  List.iter
    (fun level ->
      let res = Polygraph.check ~level h in
      let name = Checker.level_name level in
      checkb name false res.Polygraph.ok;
      Alcotest.check Alcotest.string name msg res.Polygraph.reason)
    [ Checker.SER; Checker.SI ]

let test_polygraph_constraint_structure () =
  let h =
    history ~keys:1 ~sessions:2
      [ txn ~session:1 [ r 0 0; w 0 1 ]; txn ~session:2 [ r 0 0; w 0 2 ] ]
  in
  match Polygraph.build h with
  | Ok pg ->
      (* 3 writers of x (init, T1, T2) -> 3 pairs. *)
      checki "three constraints" 3 (Polygraph.num_constraints pg);
      List.iter
        (fun (c : Polygraph.constr) ->
          checkb "both sides non-empty" true
            (c.Polygraph.if_w1_first <> [] && c.Polygraph.if_w2_first <> []))
        pg.Polygraph.constraints
  | Error _ -> Alcotest.fail "build failed"

(* --- pruning --- *)

let test_prune_decides_chain () =
  (* An RMW chain is fully ordered by WR edges: everything prunes. *)
  let h =
    history ~keys:1 ~sessions:1
      [
        txn ~session:1 [ r 0 0; w 0 1 ];
        txn ~session:1 [ r 0 1; w 0 2 ];
        txn ~session:1 [ r 0 2; w 0 3 ];
      ]
  in
  match Polygraph.build h with
  | Ok pg ->
      let pr = Polygraph.prune ~level:Checker.SER pg in
      checki "all six pairs decided" 6 pr.Polygraph.decided;
      checki "none left" 0 (List.length pr.Polygraph.undecided)
  | Error _ -> Alcotest.fail "build failed"

let test_prune_leaves_blind_writes () =
  (* Blind writes cannot be ordered by known edges. *)
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Write (0, 1) ] in
  let t2 = Txn.make ~id:2 ~session:2 [ Op.Write (0, 2) ] in
  let h = History.make ~num_keys:1 ~num_sessions:2 [ t1; t2 ] in
  match Polygraph.build h with
  | Ok pg ->
      let pr = Polygraph.prune ~level:Checker.SER pg in
      checkb "undecided remains" true (List.length pr.Polygraph.undecided >= 1)
  | Error _ -> Alcotest.fail "build failed"

(* --- Cobra: the polygraph checker at SER --- *)

let cobra h = (Polygraph.check ~level:Checker.SER h).Polygraph.ok
let polysi h = (Polygraph.check ~level:Checker.SI h).Polygraph.ok

let test_cobra_catalogue () =
  List.iter
    (fun kind ->
      let got = cobra (Anomaly.history kind) in
      checkb (Anomaly.name kind) (Anomaly.satisfies kind Checker.SER) got)
    Anomaly.all

let test_cobra_blind_write_sat () =
  (* Two blind writes with no reads: any order works. *)
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Write (0, 1) ] in
  let t2 = Txn.make ~id:2 ~session:2 [ Op.Write (0, 2) ] in
  let h = History.make ~num_keys:1 ~num_sessions:2 [ t1; t2 ] in
  checkb "serializable" true (cobra h)

let test_cobra_blind_write_unsat () =
  (* Classic non-serializable blind-write pattern: T3 reads x from T1 and
     y from T2, T4 reads x from T2's overwrite and y from T1's overwrite —
     wait, registers: build a cycle needing both orders of (T1,T2) on two
     keys.  T1 writes x,y; T2 writes x,y (blind).  T3 reads x=T1, y=T2;
     T4 reads x=T2... then WW(x): T1<T2 and WW(y): T2<T1 are forced by the
     reads-from plus anti edges, closing a cycle. *)
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Write (0, 11); Op.Write (1, 12) ] in
  let t2 = Txn.make ~id:2 ~session:2 [ Op.Write (0, 21); Op.Write (1, 22) ] in
  let t3 = Txn.make ~id:3 ~session:3 [ Op.Read (0, 11); Op.Read (1, 22) ] in
  let t4 = Txn.make ~id:4 ~session:4 [ Op.Read (0, 21); Op.Read (1, 12) ] in
  let h = History.make ~num_keys:2 ~num_sessions:4 [ t1; t2; t3; t4 ] in
  (* This is the LONGFORK shape with blind writes; not serializable. *)
  checkb "not serializable" false (cobra h)

let test_cobra_stats_populated () =
  let h =
    history ~keys:1 ~sessions:2
      [ txn ~session:1 [ r 0 0; w 0 1 ]; txn ~session:2 [ r 0 1; w 0 2 ] ]
  in
  let res = Polygraph.check ~level:Checker.SER h in
  checkb "times nonneg" true (Polygraph.total_s res.Polygraph.stats >= 0.0);
  checki "constraints counted" 3
    res.Polygraph.stats.Polygraph.constraints_total

(* --- PolySI: the polygraph checker at SI --- *)

let test_polysi_catalogue () =
  List.iter
    (fun kind ->
      let got = polysi (Anomaly.history kind) in
      checkb (Anomaly.name kind) (Anomaly.satisfies kind Checker.SI) got)
    Anomaly.all

let test_polysi_write_skew_passes () =
  checkb "write skew is SI" true (polysi (Anomaly.history Anomaly.Write_skew))

let test_polysi_long_fork_fails () =
  checkb "long fork violates SI" false
    (polysi (Anomaly.history Anomaly.Long_fork))

(* --- cross-validation on engine histories --- *)

let engine_history ~level ~fault ~seed =
  let spec = Mt_gen.generate { Mt_gen.default with num_txns = 250; num_keys = 8; seed } in
  let db = { Db.level; fault; num_keys = 8; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

let test_cobra_agrees_with_mtc () =
  List.iter
    (fun (level, fault) ->
      for seed = 1 to 3 do
        let h = engine_history ~level ~fault ~seed in
        let mtc = Checker.passes (Checker.check_ser h) in
        checkb (Printf.sprintf "seed %d" seed) mtc (cobra h)
      done)
    [
      (Isolation.Serializable, Fault.No_fault);
      (Isolation.Snapshot, Fault.No_fault);
      (Isolation.Snapshot, Fault.Lost_update 0.3);
      (Isolation.Serializable, Fault.Write_skew 0.5);
    ]

let test_polysi_agrees_with_mtc () =
  List.iter
    (fun (level, fault) ->
      for seed = 1 to 3 do
        let h = engine_history ~level ~fault ~seed in
        let mtc = Checker.passes (Checker.check_si h) in
        checkb (Printf.sprintf "seed %d" seed) mtc (polysi h)
      done)
    [
      (Isolation.Snapshot, Fault.No_fault);
      (Isolation.Snapshot, Fault.Lost_update 0.3);
      (Isolation.Snapshot, Fault.Causality_violation 0.2);
      (Isolation.Snapshot, Fault.Long_fork 0.5);
    ]

(* --- Porcupine --- *)

let test_porcupine_valid () =
  let h = Lwt_gen.generate { Lwt_gen.default with txns_per_session = 40 } in
  checkb "linearizable" true (Porcupine.check h).Porcupine.linearizable

let test_porcupine_violation () =
  let h =
    Lwt_gen.generate
      { Lwt_gen.default with txns_per_session = 40; inject = Lwt_gen.Rt_violation }
  in
  checkb "detected" false (Porcupine.check h).Porcupine.linearizable

let test_porcupine_budget () =
  let h = Lwt_gen.generate { Lwt_gen.default with txns_per_session = 40 } in
  let r = Porcupine.check ~max_states:1 h in
  checkb "budget exhaustion reported as failure" false r.Porcupine.linearizable

(* --- Elle --- *)

let append_log ~fault ~seed =
  let spec =
    Append_gen.generate { Append_gen.default with num_txns = 300; num_keys = 8; seed }
  in
  let db = { Db.level = Isolation.Snapshot; fault; num_keys = 8; seed } in
  Option.get (Scheduler.run ~db ~spec ()).Scheduler.elle

let test_elle_append_clean () =
  let e = Elle.check_append ~level:Checker.SI (append_log ~fault:Fault.No_fault ~seed:1) in
  checkb "clean passes" true e.Elle.ok

let test_elle_append_lost_update () =
  let e =
    Elle.check_append ~level:Checker.SI
      (append_log ~fault:(Fault.Lost_update 0.4) ~seed:2)
  in
  checkb "lost update detected" false e.Elle.ok

let test_elle_append_aborted_read () =
  let e =
    Elle.check_append ~level:Checker.SI
      (append_log ~fault:(Fault.Aborted_read 0.4) ~seed:3)
  in
  checkb "aborted read detected" false e.Elle.ok

let test_elle_registers_clean () =
  let h = engine_history ~level:Isolation.Snapshot ~fault:Fault.No_fault ~seed:4 in
  checkb "clean registers pass" true
    (Elle.check_registers ~level:Checker.SI h).Elle.ok

let test_elle_registers_sound () =
  (* Whatever Elle-wr flags on RMW-only histories, MTC flags too
     (soundness: Elle's inferred edges are a subset of the true ones). *)
  List.iter
    (fun (fault, seed) ->
      let h = engine_history ~level:Isolation.Snapshot ~fault ~seed in
      let elle = (Elle.check_registers ~level:Checker.SI h).Elle.ok in
      let mtc = Checker.passes (Checker.check_si h) in
      checkb "elle-fails => mtc-fails" true (elle || not mtc))
    [ (Fault.No_fault, 5); (Fault.Lost_update 0.4, 6); (Fault.Causality_violation 0.3, 7) ]

let test_elle_registers_duplicate_values () =
  let h, msg = duplicate_value_history () in
  List.iter
    (fun level ->
      let e = Elle.check_registers ~level h in
      let name = Checker.level_name level in
      checkb name false e.Elle.ok;
      Alcotest.check Alcotest.string name msg e.Elle.reason)
    [ Checker.SER; Checker.SI ]

let test_elle_registers_misses_blind_write_cycles () =
  (* The documented incompleteness: a GT history with blind writes whose
     violation hides in un-inferred WW order passes Elle-wr but fails
     the polygraph checker at SER. *)
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Write (0, 11); Op.Write (1, 12) ] in
  let t2 = Txn.make ~id:2 ~session:2 [ Op.Write (0, 21); Op.Write (1, 22) ] in
  let t3 = Txn.make ~id:3 ~session:3 [ Op.Read (0, 11); Op.Read (1, 22) ] in
  let t4 = Txn.make ~id:4 ~session:4 [ Op.Read (0, 21); Op.Read (1, 12) ] in
  let h = History.make ~num_keys:2 ~num_sessions:4 [ t1; t2; t3; t4 ] in
  checkb "elle-wr misses it" true (Elle.check_registers ~level:Checker.SER h).Elle.ok;
  checkb "cobra catches it" false (cobra h)

(* --- dbcop --- *)

let test_dbcop_catalogue () =
  List.iter
    (fun kind ->
      let r = Dbcop.check (Anomaly.history kind) in
      Alcotest.check Alcotest.bool (Anomaly.name kind)
        (Anomaly.satisfies kind Checker.SER)
        r.Dbcop.serializable)
    Anomaly.all

let test_dbcop_agrees_with_mtc () =
  List.iter
    (fun (fault, seeds) ->
      List.iter
        (fun seed ->
          let spec =
            Mt_gen.generate
              { Mt_gen.num_sessions = 4; num_txns = 120; num_keys = 8;
                dist = Distribution.Uniform; seed }
          in
          let db = { Db.level = Isolation.Snapshot; fault; num_keys = 8; seed } in
          let h = (Scheduler.run ~db ~spec ()).Scheduler.history in
          let r = Dbcop.check h in
          if not r.Dbcop.gave_up then
            Alcotest.check Alcotest.bool
              (Printf.sprintf "seed %d" seed)
              (Checker.passes (Checker.check_ser h))
              r.Dbcop.serializable)
        seeds)
    [ (Fault.No_fault, [ 1; 2; 3 ]); (Fault.Lost_update 0.2, [ 4; 5 ]) ]

let test_dbcop_rejects_gt () =
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Write (0, 1) ] in
  let h = History.make ~num_keys:1 ~num_sessions:1 [ t1 ] in
  Alcotest.check Alcotest.bool "blind write invalid" true
    ((Dbcop.check h).Dbcop.invalid <> None)

let test_dbcop_budget () =
  let h = engine_history ~level:Isolation.Serializable ~fault:Fault.No_fault ~seed:9 in
  let r = Dbcop.check ~max_states:1 h in
  Alcotest.check Alcotest.bool "gave up" true r.Dbcop.gave_up

let suite =
  [
    ("polygraph: known edges", `Quick, test_polygraph_known_edges);
    ("polygraph: screens intra anomalies", `Quick, test_polygraph_screens_intra);
    ("polygraph: constraint structure", `Quick, test_polygraph_constraint_structure);
    ("polygraph: duplicate values refused", `Quick, test_polygraph_duplicate_values);
    ("prune: RMW chain fully decided", `Quick, test_prune_decides_chain);
    ("prune: blind writes stay", `Quick, test_prune_leaves_blind_writes);
    ("cobra: anomaly catalogue", `Quick, test_cobra_catalogue);
    ("cobra: blind writes satisfiable", `Quick, test_cobra_blind_write_sat);
    ("cobra: blind-write long fork unsat", `Quick, test_cobra_blind_write_unsat);
    ("cobra: stats populated", `Quick, test_cobra_stats_populated);
    ("polysi: anomaly catalogue", `Quick, test_polysi_catalogue);
    ("polysi: write skew passes SI", `Quick, test_polysi_write_skew_passes);
    ("polysi: long fork fails SI", `Quick, test_polysi_long_fork_fails);
    ("cobra agrees with MTC-SER", `Quick, test_cobra_agrees_with_mtc);
    ("polysi agrees with MTC-SI", `Quick, test_polysi_agrees_with_mtc);
    ("porcupine: valid history", `Quick, test_porcupine_valid);
    ("porcupine: violation detected", `Quick, test_porcupine_violation);
    ("porcupine: budget exhaustion", `Quick, test_porcupine_budget);
    ("elle-append: clean", `Quick, test_elle_append_clean);
    ("elle-append: lost update", `Quick, test_elle_append_lost_update);
    ("elle-append: aborted read", `Quick, test_elle_append_aborted_read);
    ("elle-wr: clean", `Quick, test_elle_registers_clean);
    ("elle-wr: sound wrt MTC", `Quick, test_elle_registers_sound);
    ("elle-wr: incomplete on blind writes", `Quick, test_elle_registers_misses_blind_write_cycles);
    ("elle-wr: duplicate values refused", `Quick, test_elle_registers_duplicate_values);
    ("dbcop: anomaly catalogue", `Quick, test_dbcop_catalogue);
    ("dbcop: agrees with MTC-SER", `Quick, test_dbcop_agrees_with_mtc);
    ("dbcop: rejects non-MT input", `Quick, test_dbcop_rejects_gt);
    ("dbcop: state budget", `Quick, test_dbcop_budget);
  ]
