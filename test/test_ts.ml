(* Tests for the timestamp-assisted fast path (Vbox mode): chain
   construction and prediction units, the duplicate-value screen's
   byte-equality with History.unique_values, and the central QCheck
   properties — `--timestamps verify` must produce the identical verdict
   AND the identical rendered counterexample as `ignore` on any history
   (faulty engines, lying clocks, any level × rt mode), `trust` must
   agree on timestamp-faithful corpora, and injected lies must be either
   caught by certification or harmless to the verdict. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let qtest = QCheck_alcotest.to_alcotest

(* --- helpers --- *)

let render ?pool ?rt_mode ~ts level h =
  match Checker.check_report ?pool ?rt_mode ~ts level h with
  | Checker.Pass, _ -> "PASS"
  | Checker.Fail v, _ -> Report.render h level v

let mk_history txns =
  let num_keys =
    1
    + List.fold_left
        (fun m (t : Txn.t) ->
          Array.fold_left (fun m op -> Stdlib.max m (Op.key op)) m t.ops)
        0 txns
  in
  let num_sessions =
    List.fold_left (fun m (t : Txn.t) -> Stdlib.max m t.session) 1 txns
  in
  History.make ~num_keys ~num_sessions txns

(* --- units: chains and prediction --- *)

let test_chain_predict () =
  (* x1: T1 (commit 10) then T2 (commit 20); reader start decides. *)
  let h =
    mk_history
      [
        Txn.make ~id:1 ~session:1 ~start_ts:1 ~commit_ts:10 [ Op.Write (1, 11) ];
        Txn.make ~id:2 ~session:1 ~start_ts:12 ~commit_ts:20
          [ Op.Write (1, 12) ];
        Txn.make ~id:3 ~session:2 ~start_ts:15 ~commit_ts:16 [ Op.Read (1, 11) ];
      ]
  in
  let idx = Index.build_deferred h in
  match Ts.build ~mode:Ts.Verify idx with
  | Error msg -> Alcotest.failf "unexpected dup: %s" msg
  | Ok ts ->
      checki "slots = committed final writes (incl. init)" 4 (Ts.total_slots ts);
      let p t = Ts.slot_writer ts (Ts.predict ts 1 ~start_ts:t) in
      checki "before T1 commits -> init" 0 (p 5);
      checki "between commits -> T1" 1 (p 15);
      checki "exactly at commit (non-strict) -> T2" 2 (p 20);
      checki "after both -> T2" 2 (p 99);
      checki "init chain bottom" 0 (Ts.slot_writer ts (Ts.predict ts 0 ~start_ts:min_int))

let test_chain_unsorted_commits () =
  (* Chains must sort by commit_ts even when feed order disagrees. *)
  let h =
    mk_history
      [
        Txn.make ~id:1 ~session:1 ~start_ts:1 ~commit_ts:30 [ Op.Write (1, 11) ];
        Txn.make ~id:2 ~session:2 ~start_ts:2 ~commit_ts:10 [ Op.Write (1, 12) ];
      ]
  in
  let idx = Index.build_deferred h in
  match Ts.build ~mode:Ts.Trust idx with
  | Error msg -> Alcotest.failf "trust never screens: %s" msg
  | Ok ts ->
      checki "lower commit first" 2 (Ts.slot_writer ts (Ts.predict ts 1 ~start_ts:15));
      checki "higher commit later" 1 (Ts.slot_writer ts (Ts.predict ts 1 ~start_ts:31))

let test_dup_screen_matches_unique_values () =
  (* Two committed writers of (k=1, v=7): the screen must produce the
     exact unique_values message, so Malformed renders identically. *)
  let h =
    mk_history
      [
        Txn.make ~id:1 ~session:1 [ Op.Write (1, 7) ];
        Txn.make ~id:2 ~session:2 [ Op.Write (1, 7) ];
      ]
  in
  let expected =
    match History.unique_values h with
    | Error msg -> msg
    | Ok () -> Alcotest.fail "unique_values should reject"
  in
  (match Ts.build ~mode:Ts.Verify (Index.build_deferred h) with
  | Error msg -> checks "same message" expected msg
  | Ok _ -> Alcotest.fail "verify screen should reject");
  checks "end-to-end render equal"
    (render ~ts:Ts.Ignore Checker.SER h)
    (render ~ts:Ts.Verify Checker.SER h)

let test_certification_catches_lie () =
  (* T2's start_ts predicts the init write of x1, but it read T1's value:
     a lie the certifier must record without changing the verdict. *)
  let h =
    mk_history
      [
        Txn.make ~id:1 ~session:1 ~start_ts:5 ~commit_ts:50
          [ Op.Write (1, 11) ];
        Txn.make ~id:2 ~session:2 ~start_ts:10 ~commit_ts:12
          [ Op.Read (1, 11) ];
      ]
  in
  (match Checker.check_report ~ts:Ts.Verify Checker.SER h with
  | Checker.Pass, Some ts ->
      checki "one mismatch" 1 ts.Ts.mismatched_reads;
      checki "one slow key" 1 ts.Ts.slow_keys;
      checkb "report renders" true
        (match Ts.render_report ts with
        | Some s ->
            let has needle s =
              let n = String.length needle and m = String.length s in
              let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
              go 0
            in
            has "T2" s && has "T1" s
        | None -> false)
  | Checker.Pass, None -> Alcotest.fail "expected ts state"
  | Checker.Fail _, _ -> Alcotest.fail "clean history must pass");
  checks "verdict equal to ignore"
    (render ~ts:Ts.Ignore Checker.SER h)
    (render ~ts:Ts.Verify Checker.SER h)

let test_inverted_window_reported () =
  let h =
    mk_history
      [ Txn.make ~id:1 ~session:1 ~start_ts:9 ~commit_ts:3 [ Op.Write (1, 5) ] ]
  in
  match Checker.check_report ~ts:Ts.Verify Checker.SER h with
  | Checker.Pass, Some ts ->
      checkb "bad window recorded" true (ts.Ts.bad_windows = [ (1, 9, 3) ]);
      checkb "report mentions it" true (Ts.render_report ts <> None)
  | _ -> Alcotest.fail "expected pass with ts state"

(* --- QCheck: verify == ignore, always --- *)

let levels_rt =
  [
    (Checker.SER, None);
    (Checker.SI, None);
    (Checker.SSER, Some Deps.Rt_naive);
    (Checker.SSER, Some Deps.Rt_sweep);
  ]

let prop_verify_equals_ignore =
  QCheck2.Test.make ~name:"verify == ignore (verdict + rendered bytes)"
    ~count:60 ~print:Test_flat.print_config Test_flat.config_gen (fun cfg ->
      let h = Test_flat.history_of cfg in
      List.for_all
        (fun (level, rt_mode) ->
          render ?rt_mode ~ts:Ts.Ignore level h
          = render ?rt_mode ~ts:Ts.Verify level h)
        levels_rt)

(* Same property under an adversarial clock: rewrite every timestamp at
   random (inversions, duplicates, reordering across sessions).  The
   real-time relation changes — but identically for both modes — while
   certification has to fall back almost everywhere. *)
let mangle_ts seed (h : History.t) =
  let rng = Rng.create seed in
  let txns =
    Array.map
      (fun (t : Txn.t) ->
        if t.Txn.id = History.init_id then t
        else
          Txn.make ~id:t.id ~session:t.session ~status:t.status
            ~start_ts:(Rng.int rng 50) ~commit_ts:(Rng.int rng 50)
            (Array.to_list t.ops))
      h.History.txns
  in
  History.of_array ~num_keys:h.History.num_keys
    ~num_sessions:h.History.num_sessions txns

let prop_verify_equals_ignore_lying_clock =
  QCheck2.Test.make ~name:"verify == ignore under a lying clock" ~count:60
    ~print:Test_flat.print_config Test_flat.config_gen (fun cfg ->
      let (seed, _, _, _, _) = cfg in
      let h = mangle_ts (seed + 31) (Test_flat.history_of cfg) in
      List.for_all
        (fun (level, rt_mode) ->
          render ?rt_mode ~ts:Ts.Ignore level h
          = render ?rt_mode ~ts:Ts.Verify level h)
        levels_rt)

let prop_verify_equals_ignore_across_pools =
  QCheck2.Test.make ~name:"verify byte-identical across -j" ~count:25
    ~print:Test_flat.print_config Test_flat.config_gen (fun cfg ->
      let h = Test_flat.history_of cfg in
      List.for_all
        (fun (level, rt_mode) ->
          let base = render ?rt_mode ~ts:Ts.Verify level h in
          List.for_all
            (fun size ->
              Pool.with_pool ~size (fun p ->
                  render ~pool:p ?rt_mode ~ts:Ts.Verify level h)
              = base)
            [ 2; 4 ])
        levels_rt)

(* --- QCheck: trust on faithful corpora --- *)

let stream_history (p : Stream_gen.params) =
  let acc = ref [] in
  Stream_gen.generate p (fun t -> acc := t :: !acc);
  History.of_array ~num_keys:p.Stream_gen.num_keys
    ~num_sessions:p.Stream_gen.num_sessions
    (Array.of_list
       (History.init_txn ~num_keys:p.Stream_gen.num_keys :: List.rev !acc))

let stream_params_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* num_txns = int_range 20 300 in
    let* num_keys = int_range 2 40 in
    let* num_sessions = int_range 1 8 in
    return
      {
        Stream_gen.default with
        Stream_gen.num_txns;
        num_keys;
        num_sessions;
        seed;
      })

let print_stream_params (p : Stream_gen.params) =
  Printf.sprintf "txns=%d keys=%d sessions=%d seed=%d" p.Stream_gen.num_txns
    p.Stream_gen.num_keys p.Stream_gen.num_sessions p.Stream_gen.seed

let prop_trust_equals_ignore_on_faithful =
  QCheck2.Test.make ~name:"trust == ignore on timestamp-faithful corpora"
    ~count:40 ~print:print_stream_params stream_params_gen (fun p ->
      let h = stream_history p in
      List.for_all
        (fun (level, rt_mode) ->
          render ?rt_mode ~ts:Ts.Ignore level h
          = render ?rt_mode ~ts:Ts.Trust level h)
        levels_rt)

(* Lies are always either caught by certification (mismatched_reads > 0)
   or harmless (trust verdict still equals ignore).  SSER is excluded:
   there even `ignore` judges real time from the lying clock, so the
   property under test — value inference as ground truth — only makes
   sense for SER/SI. *)
let prop_lies_caught_or_harmless =
  QCheck2.Test.make ~name:"lies caught by verify, or harmless to trust"
    ~count:40 ~print:print_stream_params stream_params_gen (fun p ->
      let h = mangle_ts (p.Stream_gen.seed + 77) (stream_history p) in
      List.for_all
        (fun level ->
          let ignore_r = render ~ts:Ts.Ignore level h in
          let trust_r = render ~ts:Ts.Trust level h in
          match Checker.check_report ~ts:Ts.Verify level h with
          | verify_o, tso ->
              let verify_r =
                match verify_o with
                | Checker.Pass -> "PASS"
                | Checker.Fail v -> Report.render h level v
              in
              verify_r = ignore_r
              && (match tso with
                 | Some ts when ts.Ts.mismatched_reads > 0 -> true
                 | _ -> trust_r = ignore_r))
        [ Checker.SER; Checker.SI ])

(* --- the timestamp path freezes the value path's CSR --- *)

(* [Deps.build ~ts] promises the CSR of the value-only build, edge order
   included: reader groups are numbered by chain slot on fast keys and
   by write-table slot on slow ones, in first-appearance order on both.
   A PASS renders the same whatever the edge order, so the verdict
   properties above cannot see a numbering slip; this compares the
   frozen CSR in traversal order.  [None] when the screen fails. *)
let ts_csr ?pool ~mode h =
  let idx = Index.build_deferred h in
  match Ts.build ?pool ~mode idx with
  | Error _ -> None
  | Ok tsi -> (
      match Int_check.check_ts ?pool tsi with
      | Error _ -> None
      | Ok () ->
          Some
            ( Test_par.frozen_edges
                (Deps.build ?pool ~ts:tsi ~rt:Deps.Rt_sweep idx),
              tsi.Ts.slow_keys ))

let csr_identical ~mode h =
  let value = Test_par.csr_edges h in
  List.for_all
    (fun size ->
      let run pool = ts_csr ?pool ~mode h in
      let got =
        if size = 1 then run None
        else Pool.with_pool ~size (fun p -> run (Some p))
      in
      match got with Some (csr, _) -> csr = value | None -> false)
    [ 1; 2; 4 ]

let prop_ts_csr_identical =
  QCheck2.Test.make ~name:"ts-path CSR == value-path CSR (trust, verify)"
    ~count:40 ~print:print_stream_params stream_params_gen (fun p ->
      let h = stream_history p in
      csr_identical ~mode:Ts.Trust h && csr_identical ~mode:Ts.Verify h)

let prop_ts_csr_identical_lying_clock =
  QCheck2.Test.make ~name:"ts-path CSR == value-path CSR (verify, lying clock)"
    ~count:40 ~print:print_stream_params stream_params_gen (fun p ->
      let h = mangle_ts (p.Stream_gen.seed + 5) (stream_history p) in
      csr_identical ~mode:Ts.Verify h)

(* A clock that lies for a few transactions leaves most keys fast and
   flags a few slow, so one build numbers groups both ways; pin that
   this happens. *)
let test_ts_csr_mixed_numbering () =
  let p =
    { Stream_gen.default with num_txns = 300; num_keys = 40; num_sessions = 6;
      seed = 17; ts_lie = 0.05 }
  in
  let h = stream_history p in
  match ts_csr ~mode:Ts.Verify h with
  | None -> Alcotest.fail "the clean corpus must pass the INT screen"
  | Some (csr, slow) ->
      checkb "some keys slow, some fast" true (slow > 0 && slow < 40);
      checkb "CSR identical" true (csr = Test_par.csr_edges h)

(* --- the binary codec rejects inverted windows at write time --- *)

let test_bin_writer_rejects_inverted_window () =
  let path = Filename.temp_file "mtc_ts" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let w = Codec.Bin_writer.create ~num_keys:2 ~num_sessions:1 path in
      (try
         Codec.Bin_writer.add w
           (Txn.make ~id:1 ~session:1 ~start_ts:9 ~commit_ts:3
              [ Op.Write (1, 5) ]);
         Alcotest.fail "inverted window must be rejected"
       with Invalid_argument msg ->
         checks "message names the window"
           "Codec.Bin_writer.add: T1 start_ts 9 after commit_ts 3" msg);
      (* the writer survives the rejection: a well-formed txn still lands *)
      Codec.Bin_writer.add w
        (Txn.make ~id:1 ~session:1 ~start_ts:2 ~commit_ts:3
           [ Op.Write (1, 5) ]);
      Codec.Bin_writer.close w;
      match Codec.load_bin path with
      | Ok h -> checki "one txn round-trips" 2 (History.num_txns h)
      | Error e -> Alcotest.failf "reload failed: %s" e)

(* --- engine runs under a lying timestamp oracle (the Fault.Ts modes) --- *)

let engine_history ~level ~fault ~seed =
  let spec =
    Mt_gen.generate { Mt_gen.default with num_txns = 250; num_keys = 8; seed }
  in
  let db = { Db.level; fault; num_keys = 8; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

let ts_faults = [ Fault.Ts_skew 0.4; Fault.Ts_reorder 0.4; Fault.Ts_dup 0.4 ]

let test_faulty_oracle_verify_equals_ignore () =
  (* The engine behaves correctly but reports wrong commit timestamps;
     verify must still render byte-identically with ignore at every
     level x rt mode. *)
  List.iter
    (fun fault ->
      List.iter
        (fun engine_level ->
          for seed = 1 to 3 do
            let h = engine_history ~level:engine_level ~fault ~seed in
            List.iter
              (fun (level, rt_mode) ->
                checks
                  (Printf.sprintf "%s seed %d" (Fault.name fault) seed)
                  (render ?rt_mode ~ts:Ts.Ignore level h)
                  (render ?rt_mode ~ts:Ts.Verify level h))
              levels_rt
          done)
        [ Isolation.Serializable; Isolation.Snapshot ])
    ts_faults

let test_faulty_oracle_caught_or_harmless () =
  (* Same engine corpora: either certification flags a mismatched read,
     or the lies were mild enough that trust agrees with ignore too.
     SER/SI only, as in prop_lies_caught_or_harmless. *)
  List.iter
    (fun fault ->
      for seed = 1 to 3 do
        let h = engine_history ~level:Isolation.Snapshot ~fault ~seed in
        List.iter
          (fun level ->
            match Checker.check_report ~ts:Ts.Verify level h with
            | _, Some ts when ts.Ts.mismatched_reads > 0 -> ()
            | _, _ ->
                checks
                  (Printf.sprintf "%s seed %d harmless" (Fault.name fault)
                     seed)
                  (render ~ts:Ts.Ignore level h)
                  (render ~ts:Ts.Trust level h))
          [ Checker.SER; Checker.SI ]
      done)
    ts_faults

(* --- online ts modes --- *)

let stream_txns (p : Stream_gen.params) =
  let acc = ref [] in
  Stream_gen.generate p (fun t -> acc := t :: !acc);
  List.rev !acc

let test_online_ts_faithful_stream () =
  let p =
    {
      Stream_gen.default with
      Stream_gen.num_txns = 400;
      num_keys = 40;
      num_sessions = 4;
      seed = 7;
    }
  in
  let txns = stream_txns p in
  List.iter
    (fun level ->
      List.iter
        (fun ts ->
          match Online.check_stream ~ts ~level ~num_keys:40 txns with
          | Ok n -> checki "all accepted" 400 n
          | Error _ -> Alcotest.fail "clean stream must pass")
        Ts.all_modes)
    [ Checker.SSER; Checker.SER; Checker.SI ]

let test_online_ts_stats () =
  let p =
    {
      Stream_gen.default with
      Stream_gen.num_txns = 300;
      num_keys = 30;
      num_sessions = 4;
      seed = 11;
    }
  in
  let t = Online.create ~ts:Ts.Verify ~level:Checker.SER ~num_keys:30 () in
  List.iter
    (fun txn ->
      match Online.add_txn t txn with
      | Online.Ok_so_far -> ()
      | Online.Violation _ -> Alcotest.fail "clean stream must pass")
    (stream_txns p);
  let st = Online.stats t in
  checkb "fast reads happened" true (st.Online.s_ts_fast > 0);
  checki "no mismatches on a faithful stream" 0 st.Online.s_ts_mismatched

let test_online_ts_mismatch_fallback () =
  (* T3's start_ts predicts T2's write, but it read T1's value: the
     online certifier must count the mismatch, fall the key back to
     value resolution, and keep the stream passing (a stale read is
     SER-legal). *)
  let t = Online.create ~ts:Ts.Verify ~level:Checker.SER ~num_keys:2 () in
  let feed txn =
    match Online.add_txn t txn with
    | Online.Ok_so_far -> ()
    | Online.Violation _ -> Alcotest.fail "stream must stay clean"
  in
  feed (Txn.make ~id:1 ~session:1 ~start_ts:1 ~commit_ts:10 [ Op.Write (1, 11) ]);
  feed (Txn.make ~id:2 ~session:1 ~start_ts:12 ~commit_ts:20 [ Op.Write (1, 12) ]);
  feed (Txn.make ~id:3 ~session:2 ~start_ts:25 ~commit_ts:30 [ Op.Read (1, 11) ]);
  let st = Online.stats t in
  checki "one certification mismatch" 1 st.Online.s_ts_mismatched

let test_online_ts_requires_commit_order () =
  let t = Online.create ~ts:Ts.Trust ~level:Checker.SER ~num_keys:2 () in
  (match
     Online.add_txn t
       (Txn.make ~id:1 ~session:1 ~start_ts:1 ~commit_ts:10 [ Op.Write (1, 5) ])
   with
  | Online.Ok_so_far -> ()
  | Online.Violation _ -> Alcotest.fail "first txn must be accepted");
  Alcotest.check_raises "out-of-order commit rejected"
    (Invalid_argument "Online.add_txn: timestamp modes need commit-order streams")
    (fun () ->
      ignore
        (Online.add_txn t
           (Txn.make ~id:2 ~session:1 ~start_ts:2 ~commit_ts:5
              [ Op.Write (1, 6) ])))

(* --- the generator's ts knobs never touch ops or values --- *)

let test_stream_gen_knobs_preserve_ops () =
  let base =
    {
      Stream_gen.default with
      Stream_gen.num_txns = 200;
      num_keys = 20;
      num_sessions = 3;
      seed = 5;
    }
  in
  let ops_sig p =
    List.map
      (fun (t : Txn.t) -> (t.id, t.session, t.status, Array.to_list t.ops))
      (stream_txns p)
  in
  let ts_sig p =
    List.map (fun (t : Txn.t) -> (t.start_ts, t.commit_ts)) (stream_txns p)
  in
  let faithful = ops_sig base in
  checkb "ts-skew preserves ops" true
    (faithful = ops_sig { base with Stream_gen.ts_skew = 5 });
  checkb "ts-lie preserves ops" true
    (faithful = ops_sig { base with Stream_gen.ts_lie = 0.5 });
  List.iter
    (fun (t : Txn.t) ->
      checki "faithful start" (2 * t.id) t.start_ts;
      checki "faithful commit" ((2 * t.id) + 1) t.commit_ts)
    (stream_txns base);
  checkb "ts-lie actually changes timestamps" true
    (ts_sig base <> ts_sig { base with Stream_gen.ts_lie = 0.5 });
  checkb "ts-skew actually changes timestamps" true
    (ts_sig base <> ts_sig { base with Stream_gen.ts_skew = 5 })

let suite =
  [
    Alcotest.test_case "chain prediction" `Quick test_chain_predict;
    Alcotest.test_case "unsorted commits" `Quick test_chain_unsorted_commits;
    Alcotest.test_case "dup screen == unique_values" `Quick
      test_dup_screen_matches_unique_values;
    Alcotest.test_case "certification catches a lie" `Quick
      test_certification_catches_lie;
    Alcotest.test_case "inverted window reported" `Quick
      test_inverted_window_reported;
    Alcotest.test_case "bin writer rejects inverted window" `Quick
      test_bin_writer_rejects_inverted_window;
    Alcotest.test_case "faulty oracle: verify == ignore" `Quick
      test_faulty_oracle_verify_equals_ignore;
    Alcotest.test_case "faulty oracle: caught or harmless" `Quick
      test_faulty_oracle_caught_or_harmless;
    Alcotest.test_case "online ts: faithful stream" `Quick
      test_online_ts_faithful_stream;
    Alcotest.test_case "online ts: stats" `Quick test_online_ts_stats;
    Alcotest.test_case "online ts: mismatch fallback" `Quick
      test_online_ts_mismatch_fallback;
    Alcotest.test_case "online ts: commit order required" `Quick
      test_online_ts_requires_commit_order;
    Alcotest.test_case "stream gen: ts knobs preserve ops" `Quick
      test_stream_gen_knobs_preserve_ops;
    qtest prop_verify_equals_ignore;
    qtest prop_verify_equals_ignore_lying_clock;
    qtest prop_verify_equals_ignore_across_pools;
    qtest prop_trust_equals_ignore_on_faithful;
    qtest prop_lies_caught_or_harmless;
    qtest prop_ts_csr_identical;
    qtest prop_ts_csr_identical_lying_clock;
    Alcotest.test_case "ts-path CSR: mixed group numbering" `Quick
      test_ts_csr_mixed_numbering;
  ]
