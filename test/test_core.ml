(* Tests for mtc.core: Index, Int_check, Divergence, Deps, Checker,
   Report — the paper's verification algorithms (Algorithm 1). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

open Builder

(* --- Index --- *)

let test_index_vertices () =
  let h =
    history ~keys:1 ~sessions:2
      [
        txn ~session:1 [ r 0 0; w 0 1 ];
        txn ~session:2 ~status:Txn.Aborted [ r 0 0 ];
      ]
  in
  let idx = Index.build h in
  checki "2 committed vertices" 2 (Index.num_vertices idx);
  checki "init is vertex 0" 0 (Index.vertex idx 0);
  checkb "aborted has no vertex" true
    (try
       ignore (Index.vertex idx 2);
       false
     with Invalid_argument _ -> true)

let test_index_writer_of () =
  let h =
    history ~keys:1 ~sessions:2
      [
        txn ~session:1 [ r 0 0; w 0 1; w 0 2 ];
        txn ~session:2 ~status:Txn.Aborted [ r 0 0; w 0 99 ];
      ]
  in
  let idx = Index.build h in
  checkb "final" true (Index.writer_of idx 0 2 = Index.Final 1);
  checkb "intermediate" true (Index.writer_of idx 0 1 = Index.Intermediate 1);
  checkb "aborted" true (Index.writer_of idx 0 99 = Index.Aborted 2);
  checkb "init" true (Index.writer_of idx 0 0 = Index.Final 0);
  checkb "nobody" true (Index.writer_of idx 0 12345 = Index.Nobody)

(* The key-major write table against three last-insert-wins Hashtbl
   tables (final, intermediate, aborted) filled in scan order: a
   committed write is final iff no later op of its transaction writes
   the key.  The histories come from the duplicate screen's generator —
   aborted transactions, planted cross-transaction duplicates (callers
   without the screen see them), transactions writing one value twice,
   values reversed on no, some or all keys — with values made negative
   on no, some or all keys. *)
let reference_writers (h : History.t) =
  let final = Hashtbl.create 16
  and intermediate = Hashtbl.create 16
  and aborted = Hashtbl.create 16 in
  Array.iter
    (fun (t : Txn.t) ->
      Array.iteri
        (fun i op ->
          match (op, t.status) with
          | Op.Write (k, v), Txn.Aborted -> Hashtbl.replace aborted (k, v) t.id
          | Op.Write (k, v), Txn.Committed ->
              Hashtbl.replace
                (if Txn.final_write t.ops k = i then final else intermediate)
                (k, v) t.id
          | Op.Read _, _ -> ())
        t.ops)
    h.txns;
  fun k v ->
    match
      ( Hashtbl.find_opt final (k, v),
        Hashtbl.find_opt intermediate (k, v),
        Hashtbl.find_opt aborted (k, v) )
    with
    | Some id, _, _ -> Index.Final id
    | None, Some id, _ -> Index.Intermediate id
    | None, None, Some id -> Index.Aborted id
    | None, None, None -> Index.Nobody

let negate_values ~neg (h : History.t) =
  let f k v = if neg = 2 || (neg = 1 && k mod 3 = 1) then -v - 7 else v in
  History.of_array ~num_keys:h.num_keys ~num_sessions:h.num_sessions
    (Array.map
       (fun (t : Txn.t) ->
         Txn.make ~id:t.id ~session:t.session ~status:t.status
           ~start_ts:t.start_ts ~commit_ts:t.commit_ts
           (List.map
              (function
                | Op.Write (k, v) -> Op.Write (k, f k v)
                | Op.Read (k, v) -> Op.Read (k, f k v))
              (Array.to_list t.ops)))
       h.txns)

let prop_writer_of_reference =
  QCheck2.Test.make ~name:"index: writer_of == three last-insert-wins tables"
    ~count:300
    ~print:(fun (c, neg) ->
      Printf.sprintf "%s neg=%d" (Test_history.print_dup_case c) neg)
    QCheck2.Gen.(pair Test_history.dup_case_gen (int_range 0 2))
    (fun (c, neg) ->
      let h = negate_values ~neg (Test_history.dup_history c) in
      let reference = reference_writers h in
      let probes =
        Array.to_list h.txns
        |> List.concat_map (fun (t : Txn.t) ->
               List.concat_map
                 (fun op ->
                   let k = Op.key op and v = Op.value op in
                   [ (k, v); (k, v + 1); (k, v - 1) ])
                 (Array.to_list t.ops))
        |> List.append
             (List.init h.num_keys (fun k -> [ (k, min_int); (k, max_int) ])
             |> List.concat)
      in
      let agrees idx =
        List.for_all
          (fun (k, v) ->
            Index.writer_of idx k v = reference k v)
          probes
      in
      agrees (Index.build h)
      && agrees (Index.build_deferred h)
      && List.for_all
           (fun size -> Pool.with_pool ~size (fun p -> agrees (Index.build ~pool:p h)))
           [ 2; 4 ])

(* --- Int_check: each intra anomaly is classified precisely --- *)

let int_kind h =
  match Int_check.check (Index.build h) with
  | Ok () -> None
  | Error v -> Some (Int_check.kind_name v.Int_check.kind)

let test_int_clean () =
  let h =
    history ~keys:1 ~sessions:1 [ txn ~session:1 [ r 0 0; w 0 1; r 0 1 ] ]
  in
  checkb "clean passes" true (int_kind h = None)

let test_int_each_anomaly () =
  List.iter
    (fun (kind, name) ->
      Alcotest.check
        Alcotest.(option string)
        name (Some name)
        (int_kind (Anomaly.history kind)))
    [
      (Anomaly.Thin_air_read, "ThinAirRead");
      (Anomaly.Aborted_read, "AbortedRead");
      (Anomaly.Future_read, "FutureRead");
      (Anomaly.Not_my_last_write, "NotMyLastWrite");
      (Anomaly.Not_my_own_write, "NotMyOwnWrite");
      (Anomaly.Intermediate_read, "IntermediateRead");
      (Anomaly.Non_repeatable_reads, "NonRepeatableReads");
    ]

let test_int_inter_anomalies_pass_screen () =
  (* Inter-transactional anomalies are not INT violations. *)
  List.iter
    (fun kind ->
      if not (Anomaly.intra kind) then
        checkb (Anomaly.name kind) true (int_kind (Anomaly.history kind) = None))
    Anomaly.all

let test_int_check_all_collects () =
  let h =
    history ~keys:2 ~sessions:1
      [ txn ~session:1 [ r 0 42; r 1 43 ] ]  (* two thin-air reads *)
  in
  checki "two violations" 2 (List.length (Int_check.check_all (Index.build h)))

(* --- Divergence --- *)

let test_divergence_found () =
  let h = Anomaly.history Anomaly.Lost_update in
  match Divergence.find (Index.build h) with
  | Some inst ->
      checki "writer is init" 0 inst.Divergence.writer;
      checki "key" 0 inst.Divergence.key
  | None -> Alcotest.fail "divergence missed"

let test_divergence_absent_on_chain () =
  let h =
    history ~keys:1 ~sessions:2
      [ txn ~session:1 [ r 0 0; w 0 1 ]; txn ~session:2 [ r 0 1; w 0 2 ] ]
  in
  checkb "chain has no divergence" true (Divergence.find (Index.build h) = None)

let test_divergence_reader_without_write_ok () =
  (* Two readers of the same value where only one writes: no divergence. *)
  let h =
    history ~keys:1 ~sessions:2
      [ txn ~session:1 [ r 0 0; w 0 1 ]; txn ~session:2 [ r 0 0 ] ]
  in
  checkb "no divergence" true (Divergence.find (Index.build h) = None)

let test_divergence_find_all () =
  let h =
    history ~keys:1 ~sessions:3
      [
        txn ~session:1 [ r 0 0; w 0 1 ];
        txn ~session:2 [ r 0 0; w 0 2 ];
        txn ~session:3 [ r 0 0; w 0 3 ];
      ]
  in
  checki "three-way divergence yields two instances" 2
    (List.length (Divergence.find_all (Index.build h)))

(* --- Deps --- *)

let edges_of h rt =
  match Test_flat.deps_edges ~rt h with
  | Ok e -> e
  | Error _ -> Alcotest.fail "deps build failed"

let has_edge edges u lab v = List.mem (u, lab, v) edges

let test_deps_wr_ww_rw () =
  (* T1 reads x from init and overwrites; T2 reads x from T1. *)
  let h =
    history ~keys:1 ~sessions:2
      [ txn ~session:1 [ r 0 0; w 0 1 ]; txn ~session:2 [ r 0 1 ] ]
  in
  let e = edges_of h Deps.No_rt in
  (* vertices: 0 = init, 1 = T1, 2 = T2 *)
  checkb "WR init->T1" true (has_edge e 0 (Deps.WR 0) 1);
  checkb "WW init->T1" true (has_edge e 0 (Deps.WW 0) 1);
  checkb "WR T1->T2" true (has_edge e 1 (Deps.WR 0) 2);
  checkb "no WW to reader" false (has_edge e 1 (Deps.WW 0) 2)

let test_deps_rw_edge () =
  (* Reader of old version vs overwriter: anti-dependency. *)
  let h =
    history ~keys:1 ~sessions:2
      [ txn ~session:1 [ r 0 0 ]; txn ~session:2 [ r 0 0; w 0 1 ] ]
  in
  let e = edges_of h Deps.No_rt in
  checkb "RW T1->T2" true (has_edge e 1 (Deps.RW 0) 2)

let test_deps_no_transitive_ww () =
  (* Chain init -> T1 -> T2: no WW edge init->T2 (optimized build). *)
  let h =
    history ~keys:1 ~sessions:2
      [ txn ~session:1 [ r 0 0; w 0 1 ]; txn ~session:2 [ r 0 1; w 0 2 ] ]
  in
  let e = edges_of h Deps.No_rt in
  checkb "direct WW only" false (has_edge e 0 (Deps.WW 0) 2)

let test_deps_edge_count_linear () =
  (* m = O(n) for MT histories without RT (paper Section IV-D). *)
  let spec = Mt_gen.generate { Mt_gen.default with num_txns = 500; num_keys = 50 } in
  let db = { Db.level = Isolation.Snapshot; fault = Fault.No_fault; num_keys = 50; seed = 1 } in
  let res = Scheduler.run ~db ~spec () in
  match Deps.build ~rt:Deps.No_rt (Index.build res.Scheduler.history) with
  | Ok d ->
      let n = Index.num_vertices d.Deps.idx in
      let m = Csr.num_edges (Deps.freeze d) in
      checkb "m <= 8n" true (m <= 8 * n)
  | Error _ -> Alcotest.fail "build failed"

let test_deps_rt_naive_vs_sweep () =
  (* Cycles agree between the two RT encodings on random histories. *)
  for seed = 1 to 10 do
    let spec =
      Mt_gen.generate { Mt_gen.default with num_txns = 120; num_keys = 10; seed }
    in
    let db =
      { Db.level = Isolation.Strict_serializable; fault = Fault.No_fault;
        num_keys = 10; seed }
    in
    let res = Scheduler.run ~db ~spec () in
    let h = res.Scheduler.history in
    let naive = Checker.check_sser ~rt_mode:Deps.Rt_naive h in
    let sweep = Checker.check_sser ~rt_mode:Deps.Rt_sweep h in
    checkb
      (Printf.sprintf "seed %d agree" seed)
      true
      (Checker.passes naive = Checker.passes sweep)
  done

let test_deps_unresolved_read () =
  let h = history ~keys:1 ~sessions:1 [ txn ~session:1 [ r 0 42 ] ] in
  match Deps.build ~rt:Deps.No_rt (Index.build h) with
  | Error (Deps.Unresolved_read { txn = 1; key = 0; value = 42 }) -> ()
  | Error _ -> Alcotest.fail "wrong error payload"
  | Ok _ -> Alcotest.fail "thin-air read resolved?"

(* --- Checker on the anomaly catalogue (Table I) --- *)

let test_checker_catalogue () =
  List.iter
    (fun kind ->
      let h = Anomaly.history kind in
      List.iter
        (fun level ->
          let got = Checker.passes (Checker.check level h) in
          let want = Anomaly.satisfies kind level in
          Alcotest.check Alcotest.bool
            (Printf.sprintf "%s at %s" (Anomaly.name kind)
               (Checker.level_name level))
            want got)
        [ Checker.SSER; Checker.SER; Checker.SI ])
    Anomaly.all

let test_checker_empty_history () =
  let h = history ~keys:2 ~sessions:1 [] in
  List.iter
    (fun level -> checkb "empty passes" true (Checker.passes (Checker.check level h)))
    [ Checker.SSER; Checker.SER; Checker.SI ]

let test_checker_serializable_chain () =
  let h =
    history ~keys:2 ~sessions:2
      [
        txn ~session:1 [ r 0 0; w 0 1 ];
        txn ~session:2 [ r 0 1; r 1 0; w 1 2 ];
        txn ~session:1 [ r 1 2; r 0 1 ];
      ]
  in
  checkb "SER" true (Checker.passes (Checker.check_ser h));
  checkb "SI" true (Checker.passes (Checker.check_si h))

let test_checker_sser_rt_violation () =
  (* Serializable but not in real-time order: T2 writes after reading the
     initial value although T1 finished before T2 started. *)
  let h =
    history ~keys:1 ~sessions:2
      [
        txn ~session:1 ~start:0 ~commit:1 [ r 0 0; w 0 1 ];
        txn ~session:2 ~start:5 ~commit:6 [ r 0 0 ];
      ]
  in
  checkb "SER ok" true (Checker.passes (Checker.check_ser h));
  checkb "SSER violated" false (Checker.passes (Checker.check_sser h));
  checkb "SSER naive agrees" false
    (Checker.passes (Checker.check_sser ~rt_mode:Deps.Rt_naive h))

let test_checker_sser_cycle_reports_rt () =
  let h =
    history ~keys:1 ~sessions:2
      [
        txn ~session:1 ~start:0 ~commit:1 [ r 0 0; w 0 1 ];
        txn ~session:2 ~start:5 ~commit:6 [ r 0 0 ];
      ]
  in
  match Checker.check_sser h with
  | Checker.Fail (Checker.Cyclic cycle) ->
      checkb "mentions RT edge" true
        (List.exists (fun (_, d, _) -> d = Deps.RT) cycle);
      checkb "no helper labels leak" true
        (List.for_all (fun (_, d, _) -> d <> Deps.Rt_chain) cycle)
  | _ -> Alcotest.fail "expected a cycle"

let test_checker_malformed_dup_values () =
  let h =
    history ~keys:1 ~sessions:2
      [ txn ~session:1 [ r 0 0; w 0 1 ]; txn ~session:2 [ r 0 0; w 0 1 ] ]
  in
  match Checker.check_ser h with
  | Checker.Fail (Checker.Malformed _) -> ()
  | _ -> Alcotest.fail "duplicate values must be rejected as malformed"

let test_checker_level_names () =
  List.iter
    (fun l ->
      match Checker.level_of_string (Checker.level_name l) with
      | Some l' -> checkb "roundtrip" true (l = l')
      | None -> Alcotest.fail "level name roundtrip")
    [ Checker.SSER; Checker.SER; Checker.SI ]

let test_checker_ce_position () =
  match Checker.check_si (Anomaly.history Anomaly.Lost_update) with
  | Checker.Fail v ->
      Alcotest.check
        Alcotest.(option int)
        "position skips the initial transaction" (Some 1)
        (Checker.ce_position v)
  | Checker.Pass -> Alcotest.fail "lost update passed"

let test_checker_implications_on_engine_histories () =
  (* SSER ⊆ SER ⊆ SI on histories from every engine level. *)
  List.iter
    (fun level ->
      for seed = 1 to 3 do
        let spec =
          Mt_gen.generate
            { Mt_gen.default with num_txns = 200; num_keys = 8; seed }
        in
        let db = { Db.level; fault = Fault.No_fault; num_keys = 8; seed } in
        let res = Scheduler.run ~db ~spec () in
        let h = res.Scheduler.history in
        let sser = Checker.passes (Checker.check_sser h) in
        let ser = Checker.passes (Checker.check_ser h) in
        let si = Checker.passes (Checker.check_si h) in
        checkb "SSER implies SER" true ((not sser) || ser);
        checkb "SER implies SI... on divergence-free MT histories" true
          ((not ser) || si)
      done)
    [ Isolation.Snapshot; Isolation.Serializable; Isolation.Strict_serializable ]

(* --- Report --- *)

let test_report_classify_catalogue () =
  (* The classifier recovers the anomaly kind for the canonical shapes. *)
  List.iter
    (fun (kind, level) ->
      match Checker.check level (Anomaly.history kind) with
      | Checker.Fail v ->
          Alcotest.check
            Alcotest.(option string)
            (Anomaly.name kind)
            (Some (Anomaly.name kind))
            (Option.map Anomaly.name (Report.classify v))
      | Checker.Pass -> Alcotest.fail (Anomaly.name kind ^ " passed"))
    [
      (Anomaly.Thin_air_read, Checker.SER);
      (Anomaly.Aborted_read, Checker.SER);
      (Anomaly.Intermediate_read, Checker.SER);
      (Anomaly.Lost_update, Checker.SI);
      (Anomaly.Write_skew, Checker.SER);
      (Anomaly.Long_fork, Checker.SER);
      (Anomaly.Causality_violation, Checker.SER);
    ]

let test_report_render_mentions_txns () =
  match Checker.check_ser (Anomaly.history Anomaly.Write_skew) with
  | Checker.Fail v ->
      let s = Report.render (Anomaly.history Anomaly.Write_skew) Checker.SER v in
      let contains needle =
        let nl = String.length needle and sl = String.length s in
        let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
        go 0
      in
      checkb "mentions T1" true (contains "T1");
      checkb "mentions T2" true (contains "T2");
      checkb "mentions level" true (contains "SER violation");
      checkb "mentions counterexample position" true (contains "position")
  | Checker.Pass -> Alcotest.fail "write skew passed SER"

let suite =
  [
    ("index: vertices", `Quick, test_index_vertices);
    ("index: writer_of", `Quick, test_index_writer_of);
    QCheck_alcotest.to_alcotest prop_writer_of_reference;
    ("int: clean txn passes", `Quick, test_int_clean);
    ("int: each intra anomaly classified", `Quick, test_int_each_anomaly);
    ("int: inter anomalies pass the screen", `Quick, test_int_inter_anomalies_pass_screen);
    ("int: check_all collects", `Quick, test_int_check_all_collects);
    ("divergence: lost update found", `Quick, test_divergence_found);
    ("divergence: chain is clean", `Quick, test_divergence_absent_on_chain);
    ("divergence: reader without write ok", `Quick, test_divergence_reader_without_write_ok);
    ("divergence: find_all", `Quick, test_divergence_find_all);
    ("deps: WR/WW/RW construction", `Quick, test_deps_wr_ww_rw);
    ("deps: anti-dependency edge", `Quick, test_deps_rw_edge);
    ("deps: no transitive WW (optimized)", `Quick, test_deps_no_transitive_ww);
    ("deps: O(n) edges on MT histories", `Quick, test_deps_edge_count_linear);
    ("deps: RT naive vs sweep agree", `Quick, test_deps_rt_naive_vs_sweep);
    ("deps: unresolved read reported", `Quick, test_deps_unresolved_read);
    ("checker: 14-anomaly catalogue verdicts", `Quick, test_checker_catalogue);
    ("checker: empty history", `Quick, test_checker_empty_history);
    ("checker: serializable chain passes", `Quick, test_checker_serializable_chain);
    ("checker: SSER real-time violation", `Quick, test_checker_sser_rt_violation);
    ("checker: SSER cycle reports RT edges", `Quick, test_checker_sser_cycle_reports_rt);
    ("checker: duplicate values malformed", `Quick, test_checker_malformed_dup_values);
    ("checker: level names roundtrip", `Quick, test_checker_level_names);
    ("checker: counterexample position", `Quick, test_checker_ce_position);
    ("checker: level implications", `Quick, test_checker_implications_on_engine_histories);
    ("report: classify catalogue", `Quick, test_report_classify_catalogue);
    ("report: render mentions transactions", `Quick, test_report_render_mentions_txns);
  ]
