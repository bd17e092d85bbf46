(* Tests for the Online (streaming) checker: agreement with the batch
   checker on engine histories fed in commit order, early detection, and
   the poisoned-state contract. *)

let checkb = Alcotest.check Alcotest.bool

(* A history's transactions in commit order (aborted attempts included,
   ordered by their abort time), as a monitoring proxy would see them. *)
let stream_of (h : History.t) =
  Array.to_list h.History.txns
  |> List.filter (fun (t : Txn.t) -> t.Txn.id <> History.init_id)
  |> List.sort (fun (a : Txn.t) b -> compare a.Txn.commit_ts b.Txn.commit_ts)

let engine_history ~level ~fault ~seed =
  let spec =
    Mt_gen.generate { Mt_gen.default with num_txns = 250; num_keys = 10; seed }
  in
  let db = { Db.level; fault; num_keys = 10; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

let agree level h =
  let batch = Checker.passes (Checker.check level h) in
  let online =
    match
      Online.check_stream ~level ~num_keys:h.History.num_keys (stream_of h)
    with
    | Ok _ -> true
    | Error _ -> false
  in
  batch = online

let test_online_agrees_clean () =
  List.iter
    (fun (engine, level) ->
      for seed = 1 to 4 do
        checkb
          (Printf.sprintf "%s seed %d" (Checker.level_name level) seed)
          true
          (agree level (engine_history ~level:engine ~fault:Fault.No_fault ~seed))
      done)
    [
      (Isolation.Snapshot, Checker.SI);
      (Isolation.Serializable, Checker.SER);
      (Isolation.Strict_serializable, Checker.SSER);
      (Isolation.Snapshot, Checker.SER);
    ]

let test_online_agrees_faulty () =
  List.iter
    (fun (fault, level) ->
      for seed = 1 to 4 do
        checkb
          (Printf.sprintf "%s seed %d" (Checker.level_name level) seed)
          true
          (agree level
             (engine_history ~level:Isolation.Snapshot ~fault ~seed))
      done)
    [
      (Fault.Lost_update 0.2, Checker.SI);
      (Fault.Aborted_read 0.2, Checker.SI);
      (Fault.Causality_violation 0.1, Checker.SI);
      (Fault.Lost_update 0.2, Checker.SER);
    ]

let test_online_detects_at_offender () =
  (* The violation fires exactly when the second diverging writer
     arrives. *)
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Read (0, 0); Op.Write (0, 1) ] in
  let t2 = Txn.make ~id:2 ~session:2 [ Op.Read (0, 0); Op.Write (0, 2) ] in
  let o = Online.create ~level:Checker.SI ~num_keys:1 () in
  checkb "first writer fine" true (Online.add_txn o t1 = Online.Ok_so_far);
  (match Online.add_txn o t2 with
  | Online.Violation (Checker.Diverged _) -> ()
  | _ -> Alcotest.fail "expected divergence at T2");
  (* poisoned: same violation returned, txn not consumed *)
  let t3 = Txn.make ~id:3 ~session:1 [ Op.Read (0, 1) ] in
  match Online.add_txn o t3 with
  | Online.Violation (Checker.Diverged _) -> ()
  | _ -> Alcotest.fail "poisoned checker must keep failing"

let test_online_write_skew_cycle () =
  let t1 =
    Txn.make ~id:1 ~session:1
      [ Op.Read (0, 0); Op.Read (1, 0); Op.Write (0, 1) ]
  in
  let t2 =
    Txn.make ~id:2 ~session:2
      [ Op.Read (0, 0); Op.Read (1, 0); Op.Write (1, 2) ]
  in
  (match Online.check_stream ~level:Checker.SER ~num_keys:2 [ t1; t2 ] with
  | Error (Checker.Cyclic cycle) ->
      checkb "RW edges in cycle" true
        (List.exists (fun (_, d, _) -> match d with Deps.RW _ -> true | _ -> false) cycle)
  | _ -> Alcotest.fail "write skew must cycle at SER");
  (* and at SI the same stream passes *)
  checkb "SI passes write skew" true
    (Online.check_stream ~level:Checker.SI ~num_keys:2 [ t1; t2 ] = Ok 2)

let test_online_sser_rt () =
  let t1 =
    Txn.make ~id:1 ~session:1 ~start_ts:0 ~commit_ts:10
      [ Op.Read (0, 0); Op.Write (0, 1) ]
  in
  let t2 =
    Txn.make ~id:2 ~session:2 ~start_ts:20 ~commit_ts:30 [ Op.Read (0, 0) ]
  in
  (match Online.check_stream ~level:Checker.SSER ~num_keys:1 [ t1; t2 ] with
  | Error (Checker.Cyclic _) -> ()
  | _ -> Alcotest.fail "stale read after commit must fail SSER");
  (* skew tolerance covers small drift *)
  let t2' = Txn.make ~id:2 ~session:2 ~start_ts:12 ~commit_ts:30 [ Op.Read (0, 0) ] in
  checkb "with skew" true
    (Online.check_stream ~skew:5 ~level:Checker.SSER ~num_keys:1 [ t1; t2' ]
    = Ok 2)

let test_online_sser_order_enforced () =
  let t1 = Txn.make ~id:1 ~session:1 ~start_ts:0 ~commit_ts:50 [ Op.Read (0, 0) ] in
  let t2 = Txn.make ~id:2 ~session:2 ~start_ts:0 ~commit_ts:10 [ Op.Read (0, 0) ] in
  checkb "out of order rejected" true
    (try
       ignore (Online.check_stream ~level:Checker.SSER ~num_keys:1 [ t1; t2 ]);
       false
     with Invalid_argument _ -> true)

let test_online_id_reuse_rejected () =
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Read (0, 0) ] in
  let o = Online.create ~level:Checker.SER ~num_keys:1 () in
  ignore (Online.add_txn o t1);
  checkb "reuse rejected" true
    (try
       ignore (Online.add_txn o t1);
       false
     with Invalid_argument _ -> true)

let test_online_aborted_read_diagnosed () =
  let t1 =
    Txn.make ~id:1 ~session:1 ~status:Txn.Aborted
      [ Op.Read (0, 0); Op.Write (0, 9) ]
  in
  let t2 = Txn.make ~id:2 ~session:2 [ Op.Read (0, 9) ] in
  match Online.check_stream ~level:Checker.SI ~num_keys:1 [ t1; t2 ] with
  | Error (Checker.Intra { kind = Int_check.Aborted_read 1; _ }) -> ()
  | _ -> Alcotest.fail "expected AbortedRead pointing at T1"

let test_online_duplicate_value () =
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Read (0, 0); Op.Write (0, 7) ] in
  let t2 = Txn.make ~id:2 ~session:2 [ Op.Read (0, 7); Op.Write (0, 7) ] in
  match Online.check_stream ~level:Checker.SI ~num_keys:1 [ t1; t2 ] with
  | Error (Checker.Malformed _) -> ()
  | _ -> Alcotest.fail "duplicate value must be rejected"

let test_online_grows_past_capacity () =
  (* More than the initial 64-vertex capacity. *)
  let txns =
    List.init 500 (fun i ->
        Txn.make ~id:(i + 1) ~session:1 [ Op.Read (0, i); Op.Write (0, i + 1) ])
  in
  checkb "long chain accepted" true
    (Online.check_stream ~level:Checker.SER ~num_keys:1 txns = Ok 500)

let test_online_poisoned_is_frozen () =
  (* After the first violation the checker is inert: every further
     add_txn answers with the identical violation and the graph stops
     mutating (same vertex and edge counts, txns_seen frozen). *)
  let t1 = Txn.make ~id:1 ~session:1 [ Op.Read (0, 0); Op.Write (0, 1) ] in
  let t2 = Txn.make ~id:2 ~session:2 [ Op.Read (0, 0); Op.Write (0, 2) ] in
  let o = Online.create ~level:Checker.SI ~num_keys:1 () in
  ignore (Online.add_txn o t1);
  let first =
    match Online.add_txn o t2 with
    | Online.Violation v -> v
    | Online.Ok_so_far -> Alcotest.fail "divergence must be flagged"
  in
  checkb "poisoned" true (Online.poisoned o <> None);
  let frozen = Online.stats o in
  for i = 3 to 10 do
    let t = Txn.make ~id:i ~session:1 [ Op.Read (0, 1) ] in
    (match Online.add_txn o t with
    | Online.Violation v ->
        checkb "identical violation" true (v == first)
    | Online.Ok_so_far -> Alcotest.fail "poisoned checker must keep failing");
    let s = Online.stats o in
    Alcotest.check Alcotest.int "txns_seen frozen" frozen.Online.s_txns_seen
      s.Online.s_txns_seen;
    Alcotest.check Alcotest.int "vertices frozen" frozen.Online.s_vertices
      s.Online.s_vertices;
    Alcotest.check Alcotest.int "edges frozen" frozen.Online.s_edges
      s.Online.s_edges;
    checkb "still poisoned" true s.Online.s_poisoned
  done

let test_online_stats_progress () =
  let o = Online.create ~level:Checker.SER ~num_keys:1 () in
  let s0 = Online.stats o in
  Alcotest.check Alcotest.int "starts empty" 0 s0.Online.s_txns_seen;
  checkb "starts clean" false s0.Online.s_poisoned;
  ignore (Online.add_txn o (Txn.make ~id:1 ~session:1 [ Op.Read (0, 0); Op.Write (0, 1) ]));
  ignore (Online.add_txn o (Txn.make ~id:2 ~session:1 [ Op.Read (0, 1); Op.Write (0, 2) ]));
  let s = Online.stats o in
  Alcotest.check Alcotest.int "two seen" 2 s.Online.s_txns_seen;
  checkb "dependency edges recorded" true (s.Online.s_edges >= 1);
  checkb "vertices cover txns" true (s.Online.s_vertices >= 2)

let test_online_edge_count_distinct () =
  (* T1 -> T2 carries both a WR and a WW dependency on key 0; the edge
     count must report one distinct graph edge per vertex pair, not one
     per dependency label. *)
  let o = Online.create ~level:Checker.SER ~num_keys:1 () in
  ignore (Online.add_txn o (Txn.make ~id:1 ~session:1 [ Op.Read (0, 0); Op.Write (0, 1) ]));
  ignore (Online.add_txn o (Txn.make ~id:2 ~session:1 [ Op.Read (0, 1); Op.Write (0, 2) ]));
  let s = Online.stats o in
  checkb "not poisoned" false s.Online.s_poisoned;
  (* init -> T1 (WR), T1 -> T2 (SO + WR + WW collapse to one edge). *)
  Alcotest.check Alcotest.int "distinct edges" 2 s.Online.s_edges

let test_grow_duplicate_and_stale_label () =
  let g = Online.Grow.create () in
  (match Online.Grow.add_edge g 0 1 Deps.SO with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first edge must be accepted");
  Alcotest.check Alcotest.int "one edge" 1 (Online.Grow.edge_count g);
  (* Duplicate insertion: accepted, but neither the count nor the
     original label may change. *)
  (match Online.Grow.add_edge g 0 1 (Deps.WW 0) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "duplicate edge must be Ok");
  Alcotest.check Alcotest.int "count unchanged on duplicate" 1
    (Online.Grow.edge_count g);
  checkb "label unchanged on duplicate" true
    (Online.Grow.label g 0 1 = Deps.SO);
  (* Rejected edge: 1 -> 0 closes a cycle; its label must not leak into
     the label table (lookup falls back to the internal Rt_chain). *)
  (match Online.Grow.add_edge g 1 0 (Deps.WR 0) with
  | Error path -> checkb "witness path" true (path <> [])
  | Ok () -> Alcotest.fail "cycle edge must be rejected");
  Alcotest.check Alcotest.int "count unchanged on reject" 1
    (Online.Grow.edge_count g);
  checkb "no stale label on rejected edge" true
    (Online.Grow.label g 1 0 = Deps.Rt_chain)

let test_online_counts () =
  let o = Online.create ~level:Checker.SER ~num_keys:1 () in
  ignore (Online.add_txn o (Txn.make ~id:1 ~session:1 [ Op.Read (0, 0) ]));
  Alcotest.check Alcotest.int "one seen" 1 (Online.txns_seen o)

(* A key outside [0, num_keys) is refused before any state changes — a
   negative key would otherwise pack into another label, and a large one
   overflow the graph's label range after the transaction's vertex went
   in — whether the transaction commits or aborts, at every level and
   timestamp mode; the next in-range transaction is accepted. *)
let test_online_key_out_of_range () =
  let encoded o =
    let b = Buffer.create 256 in
    Online.encode b o;
    Buffer.contents b
  in
  List.iter
    (fun (level, ts) ->
      let o = Online.create ~ts ~level ~num_keys:1 () in
      let feed id ?status ops =
        Online.add_txn o
          (Txn.make ~id ~session:1 ?status ~start_ts:(2 * id)
             ~commit_ts:((2 * id) + 1) ops)
      in
      checkb "in range" true
        (feed 1 [ Op.Read (0, 0); Op.Write (0, 1) ] = Online.Ok_so_far);
      List.iter
        (fun k ->
          List.iter
            (fun status ->
              let stats = Online.stats o and bytes = encoded o in
              (match feed 2 ~status [ Op.Read (0, 1); Op.Write (k, 2) ] with
              | _ -> Alcotest.failf "key %d must be refused" k
              | exception Invalid_argument m ->
                  Alcotest.check Alcotest.string "names the key"
                    (Printf.sprintf
                       "Online.add_txn: T2 accesses key %d out of [0,1)" k)
                    m);
              checkb "stats unchanged" true (Online.stats o = stats);
              checkb "state unchanged" true (encoded o = bytes))
            [ Txn.Committed; Txn.Aborted ])
        [ -1; -2; 1; 1 lsl 29 ];
      checkb "next in-range accepted" true
        (feed 2 [ Op.Read (0, 1); Op.Write (0, 2) ] = Online.Ok_so_far))
    [
      (Checker.SER, Ts.Ignore); (Checker.SI, Ts.Trust);
      (Checker.SSER, Ts.Verify);
    ];
  match Online.create ~level:Checker.SER ~num_keys:(Online.max_keys + 1) () with
  | _ -> Alcotest.fail "num_keys past the label bound must be refused"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ("agrees with batch on clean engines", `Quick, test_online_agrees_clean);
    ("agrees with batch on faulty engines", `Quick, test_online_agrees_faulty);
    ("divergence flagged at the offender", `Quick, test_online_detects_at_offender);
    ("write-skew cycle at SER, pass at SI", `Quick, test_online_write_skew_cycle);
    ("SSER real-time edge + skew", `Quick, test_online_sser_rt);
    ("SSER stream order enforced", `Quick, test_online_sser_order_enforced);
    ("transaction id reuse rejected", `Quick, test_online_id_reuse_rejected);
    ("aborted read diagnosed", `Quick, test_online_aborted_read_diagnosed);
    ("duplicate value rejected", `Quick, test_online_duplicate_value);
    ("edge count is per distinct vertex pair", `Quick, test_online_edge_count_distinct);
    ("Grow: duplicate accounting and stale labels", `Quick, test_grow_duplicate_and_stale_label);
    ("grows past initial capacity", `Quick, test_online_grows_past_capacity);
    ("poisoned checker frozen (stats)", `Quick, test_online_poisoned_is_frozen);
    ("stats track progress", `Quick, test_online_stats_progress);
    ("txns_seen", `Quick, test_online_counts);
    ("keys out of range refused before any change", `Quick,
     test_online_key_out_of_range);
  ]
