(* Property-based tests (QCheck): randomized cross-validation of the
   checkers, the engine, and the graph substrate. *)

let qtest = QCheck_alcotest.to_alcotest

(* Generator of engine configurations + workload seeds. *)
let config_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* num_keys = int_range 2 30 in
    let* num_txns = int_range 20 300 in
    let* num_sessions = int_range 1 12 in
    let* level =
      oneofl [ Isolation.Snapshot; Isolation.Serializable; Isolation.Strict_serializable ]
    in
    let* dist =
      oneofl
        [ Distribution.Uniform; Distribution.Zipfian 0.99;
          Distribution.Hotspot (0.2, 0.8); Distribution.Exponential 1.0 ]
    in
    return (seed, num_keys, num_txns, num_sessions, level, dist))

let print_config (seed, num_keys, num_txns, num_sessions, level, dist) =
  Printf.sprintf "seed=%d keys=%d txns=%d sessions=%d level=%s dist=%s" seed
    num_keys num_txns num_sessions (Isolation.name level)
    (Distribution.kind_name dist)

let run_config ?(fault = Fault.No_fault)
    (seed, num_keys, num_txns, num_sessions, level, dist) =
  let spec =
    Mt_gen.generate { Mt_gen.num_sessions; num_txns; num_keys; dist; seed }
  in
  let db = { Db.level; fault; num_keys; seed } in
  Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ()

(* P1: a healthy engine never violates its claimed isolation level. *)
let prop_engine_sound =
  QCheck2.Test.make ~name:"healthy engine passes its claimed level" ~count:60
    ~print:print_config config_gen (fun cfg ->
      let _, _, _, _, level, _ = cfg in
      let r = run_config cfg in
      let h = r.Scheduler.history in
      Checker.passes (Checker.check (Isolation.claimed_level level) h))

(* P2: level implications on arbitrary (even faulty) histories:
   SSER pass => SER pass; SER pass => SI pass (MT histories). *)
let prop_level_implications =
  QCheck2.Test.make ~name:"SSER => SER => SI on MT histories" ~count:60
    ~print:print_config config_gen (fun cfg ->
      let r = run_config ~fault:(Fault.Lost_update 0.1) cfg in
      let h = r.Scheduler.history in
      let sser = Checker.passes (Checker.check_sser h) in
      let ser = Checker.passes (Checker.check_ser h) in
      let si = Checker.passes (Checker.check_si h) in
      ((not sser) || ser) && ((not ser) || si))

(* P3/P4: MTC == the polygraph checker on MT histories (sound and complete,
   Theorems 4 and 5), from engines running every fault mode.  Each test's
   generator starts from the one QCheck seed, so the two properties draw
   the same cases and each case is compared at SER and at SI. *)
let fault_gen =
  QCheck2.Gen.oneofl
    Fault.
      [
        No_fault; Lost_update 0.1; Aborted_read 0.1; Causality_violation 0.1;
        Write_skew 0.1; Long_fork 0.1; Ts_skew 0.1; Ts_reorder 0.1; Ts_dup 0.1;
      ]

let prop_mtc_equals_polygraph ~name level =
  QCheck2.Test.make ~name ~count:100
    ~print:(fun (cfg, fault) ->
      Printf.sprintf "%s fault=%s" (print_config cfg) (Fault.name fault))
    (QCheck2.Gen.pair config_gen fault_gen)
    (fun (cfg, fault) ->
      let h = (run_config ~fault cfg).Scheduler.history in
      Checker.passes (Checker.check level h)
      = (Polygraph.check ~level h).Polygraph.ok)

let prop_mtc_ser_equals_cobra =
  prop_mtc_equals_polygraph ~name:"MTC-SER == Cobra" Checker.SER

let prop_mtc_si_equals_polysi =
  prop_mtc_equals_polygraph ~name:"MTC-SI == PolySI" Checker.SI

(* P5: RT encodings agree (Theorem on the sweep construction). *)
let prop_rt_encodings_agree =
  QCheck2.Test.make ~name:"SSER sweep == naive RT encoding" ~count:40
    ~print:print_config config_gen (fun cfg ->
      let h = (run_config cfg).Scheduler.history in
      Checker.passes (Checker.check_sser ~rt_mode:Deps.Rt_sweep h)
      = Checker.passes (Checker.check_sser ~rt_mode:Deps.Rt_naive h))

(* P6: codec roundtrip preserves checker verdicts. *)
let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrip preserves verdicts" ~count:30
    ~print:print_config config_gen (fun cfg ->
      let h = (run_config cfg).Scheduler.history in
      match Codec.of_string (Codec.to_string h) with
      | Ok h' ->
          List.for_all
            (fun level ->
              Checker.passes (Checker.check level h)
              = Checker.passes (Checker.check level h'))
            [ Checker.SSER; Checker.SER; Checker.SI ]
      | Error _ -> false)

(* P7: value-corruption mutations are caught.  Swapping one committed
   read's value for another object value (if distinct) must either break
   the INT screen or a dependency. *)
let prop_mutation_detected =
  QCheck2.Test.make ~name:"read-value corruption detected" ~count:40
    ~print:print_config config_gen (fun cfg ->
      let seed, _, _, _, _, _ = cfg in
      let r = run_config cfg in
      let h = r.Scheduler.history in
      (* Corrupt: find a committed txn with an external read of a non-zero
         value and bump the value to something never written. *)
      let rng = Rng.create seed in
      let txns = Array.copy h.History.txns in
      let candidates =
        Array.to_list txns
        |> List.filter (fun (t : Txn.t) ->
               Txn.is_committed t && t.Txn.id <> History.init_id
               && Array.exists (function Op.Read _ -> true | _ -> false) t.Txn.ops)
      in
      match candidates with
      | [] -> true (* nothing to corrupt: vacuously fine *)
      | _ ->
          let victim = Rng.pick rng (Array.of_list candidates) in
          let ops =
            Array.map
              (fun op ->
                match op with
                | Op.Read (k, _) -> Op.Read (k, 999_999_999)
                | Op.Write _ -> op)
              victim.Txn.ops
          in
          txns.(victim.Txn.id) <- { victim with Txn.ops };
          let h' =
            History.make ~num_keys:h.History.num_keys
              ~num_sessions:h.History.num_sessions
              (Array.to_list txns |> List.tl)
          in
          not (Checker.passes (Checker.check_si h')))

(* P7b: the weak-level lattice holds on arbitrary engine histories:
   SI pass => Causal pass => Read Atomic pass => Read Committed pass. *)
let prop_weak_lattice =
  QCheck2.Test.make ~name:"SI => CC => RA => RC (weak lattice)" ~count:40
    ~print:print_config config_gen (fun cfg ->
      let seed, _, _, _, _, _ = cfg in
      let fault =
        match seed mod 3 with
        | 0 -> Fault.Lost_update 0.15
        | 1 -> Fault.Causality_violation 0.1
        | _ -> Fault.No_fault
      in
      let h = (run_config ~fault cfg).Scheduler.history in
      let si = Checker.passes (Checker.check_si h) in
      let cc = Weak_checker.passes (Weak_checker.check_causal h) in
      let ra = Weak_checker.passes (Weak_checker.check_ra h) in
      let rc = Weak_checker.passes (Weak_checker.check_rc h) in
      ((not si) || cc) && ((not cc) || ra) && ((not ra) || rc))

(* P7c: the streaming checker agrees with the batch checker when fed the
   history in commit order. *)
let prop_online_equals_batch =
  QCheck2.Test.make ~name:"online == batch checker" ~count:40
    ~print:print_config config_gen (fun cfg ->
      let seed, _, _, _, level, _ = cfg in
      let fault =
        if seed mod 2 = 0 then Fault.Lost_update 0.15 else Fault.No_fault
      in
      let h = (run_config ~fault cfg).Scheduler.history in
      let stream =
        Array.to_list h.History.txns
        |> List.filter (fun (t : Txn.t) -> t.Txn.id <> History.init_id)
        |> List.sort (fun (a : Txn.t) b -> compare a.Txn.commit_ts b.Txn.commit_ts)
      in
      let check_level = Isolation.claimed_level level in
      let batch = Checker.passes (Checker.check check_level h) in
      let online =
        Result.is_ok
          (Online.check_stream ~level:check_level
             ~num_keys:h.History.num_keys stream)
      in
      batch = online)

(* P8: the LWT generator + checker agree with Porcupine. *)
let lwt_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 5_000 in
    let* sessions = int_range 2 8 in
    let* txns = int_range 5 40 in
    let* pct = oneofl [ 0.0; 0.5; 1.0 ] in
    let* read_pct = oneofl [ 0.0; 0.2 ] in
    let* inject =
      oneofl
        [ Lwt_gen.No_injection; Lwt_gen.Rt_violation; Lwt_gen.Phantom_write;
          Lwt_gen.Split_brain ]
    in
    return (seed, sessions, txns, pct, read_pct, inject))

let prop_vl_lwt_equals_porcupine =
  QCheck2.Test.make ~name:"VL-LWT == Porcupine" ~count:60
    ~print:(fun (s, se, t, p, _, _) ->
      Printf.sprintf "seed=%d sessions=%d txns=%d pct=%.1f" s se t p)
    lwt_gen
    (fun (seed, num_sessions, txns_per_session, concurrent_pct, read_pct, inject) ->
      let h =
        Lwt_gen.generate
          { Lwt_gen.num_sessions; txns_per_session; num_keys = 3;
            concurrent_pct; read_pct; seed; inject }
      in
      (Lwt_checker.check h = Ok ())
      = (Porcupine.check h).Porcupine.linearizable)

(* P9: Pearce–Kelly accepts exactly the acyclic edge streams. *)
let edge_stream_gen =
  QCheck2.Gen.(
    let* n = int_range 2 15 in
    let* edges = list_size (int_range 1 40) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
    return (n, edges))

let prop_pk_matches_oracle =
  QCheck2.Test.make ~name:"Pearce-Kelly matches batch cycle oracle" ~count:200
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";"
           (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges)))
    edge_stream_gen
    (fun (n, edges) ->
      let pk = Pearce_kelly.create n in
      let accepted = ref [] in
      let acyclic edges = Cycle.find_csr (Csr.of_edges ~n edges) = None in
      List.for_all
        (fun (u, v) ->
          match Pearce_kelly.add_edge pk u v with
          | Ok () ->
              accepted := (u, (), v) :: !accepted;
              acyclic !accepted && Pearce_kelly.check_invariant pk
          | Error _ ->
              (* must really close a cycle *)
              not (acyclic ((u, (), v) :: !accepted)))
        edges)

(* P10: abort-rate sanity — MT workloads abort strictly less than GT
   workloads under identical contention (Figure 11's shape). *)
let prop_mt_aborts_less_than_gt =
  QCheck2.Test.make ~name:"MT abort rate <= GT abort rate (hot keys)" ~count:10
    ~print:string_of_int
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let num_keys = 8 in
      let db level = { Db.level; fault = Fault.No_fault; num_keys; seed } in
      let mt =
        Scheduler.run ~db:(db Isolation.Serializable)
          ~spec:(Mt_gen.generate
                   { Mt_gen.default with num_txns = 400; num_keys; seed })
          ()
      in
      let gt =
        Scheduler.run ~db:(db Isolation.Serializable)
          ~spec:(Gt_gen.generate
                   { Gt_gen.default with num_txns = 400; num_keys; ops_per_txn = 16; seed })
          ()
      in
      Scheduler.abort_rate mt <= Scheduler.abort_rate gt +. 0.05)

let suite =
  List.map qtest
    [
      prop_engine_sound;
      prop_level_implications;
      prop_mtc_ser_equals_cobra;
      prop_mtc_si_equals_polysi;
      prop_rt_encodings_agree;
      prop_codec_roundtrip;
      prop_mutation_detected;
      prop_weak_lattice;
      prop_online_equals_batch;
      prop_vl_lwt_equals_porcupine;
      prop_pk_matches_oracle;
      prop_mt_aborts_less_than_gt;
    ]
