(* Watermark-GC equivalence and bounded-memory tests for the Online
   checker.  The torture harness feeds a GC'd and an unbounded instance
   in lockstep, compacting the GC'd one after *every* transaction (once
   each generator session has appeared — the documented precondition),
   and demands identical step outcomes, identical rendered
   counterexamples and identical logical stats at every position. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest = QCheck_alcotest.to_alcotest

let render v = Format.asprintf "%a" Checker.pp_violation v

(* Commit-order stream, as a monitoring proxy would deliver it. *)
let stream_of (h : History.t) =
  Array.to_list h.History.txns
  |> List.filter (fun (t : Txn.t) -> t.Txn.id <> History.init_id)
  |> List.sort (fun (a : Txn.t) b -> compare a.Txn.commit_ts b.Txn.commit_ts)

let engine_history ?(num_txns = 250) ?(num_sessions = 4) ~level ~fault ~seed
    () =
  let spec =
    Mt_gen.generate
      { Mt_gen.default with num_sessions; num_txns; num_keys = 10; seed }
  in
  let db = { Db.level; fault; num_keys = 10; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

(* The logical counters that must be byte-identical between a GC'd and
   an unbounded run.  Live-words and the gc_* gauges are deliberately
   excluded: differing is their whole point.  The ts_fast/ts_mismatched
   diagnostics are excluded only under a lying timestamp oracle
   ([strict_ts = false]): a lying start_ts below the compacted horizon
   makes the GC'd run count a certification mismatch where the
   unbounded one predicted fast — attribution falls back to value
   resolution either way, so verdicts and edges still agree. *)
let logical_stats ?(strict_ts = true) s =
  ( s.Online.s_txns_seen,
    s.Online.s_vertices,
    s.Online.s_edges,
    s.Online.s_poisoned,
    (if strict_ts then s.Online.s_ts_fast else 0),
    if strict_ts then s.Online.s_ts_mismatched else 0 )

(* Feed [stream] to an unbounded and a GC'd checker in lockstep; the
   GC'd one is compacted after every feed once all sessions present in
   the stream have fed at least once.  True iff every step outcome,
   rendering and logical stat agrees at every position. *)
let lockstep ?(skew = 0) ?(ts = Ts.Ignore) ?(strict_ts = true) ~level
    ~num_keys stream =
  let a = Online.create ~skew ~ts ~level ~num_keys () in
  let b = Online.create ~skew ~ts ~level ~num_keys () in
  let sessions =
    List.sort_uniq compare (List.map (fun t -> t.Txn.session) stream)
  in
  let total = List.length sessions in
  let seen = Hashtbl.create 8 in
  List.for_all
    (fun txn ->
      Hashtbl.replace seen txn.Txn.session ();
      let ra = Online.add_txn a txn in
      let rb = Online.add_txn b txn in
      let step_ok =
        match (ra, rb) with
        | Online.Ok_so_far, Online.Ok_so_far -> true
        | Online.Violation va, Online.Violation vb -> render va = render vb
        | _ -> false
      in
      if Hashtbl.length seen = total then ignore (Online.gc b);
      step_ok
      && logical_stats ~strict_ts (Online.stats a)
         = logical_stats ~strict_ts (Online.stats b))
    stream

let test_gc_equivalence_clean () =
  List.iter
    (fun (engine, level) ->
      for seed = 1 to 3 do
        checkb
          (Printf.sprintf "%s seed %d" (Checker.level_name level) seed)
          true
          (lockstep ~level ~num_keys:10
             (stream_of
                (engine_history ~level:engine ~fault:Fault.No_fault ~seed ())))
      done)
    [
      (Isolation.Snapshot, Checker.SI);
      (Isolation.Serializable, Checker.SER);
      (Isolation.Strict_serializable, Checker.SSER);
    ]

let test_gc_equivalence_faulty () =
  List.iter
    (fun (fault, level) ->
      for seed = 1 to 3 do
        checkb
          (Printf.sprintf "%s/%s seed %d" (Fault.name fault)
             (Checker.level_name level) seed)
          true
          (lockstep ~level ~num_keys:10
             (stream_of
                (engine_history ~level:Isolation.Snapshot ~fault ~seed ())))
      done)
    [
      (Fault.Lost_update 0.2, Checker.SI);
      (Fault.Aborted_read 0.2, Checker.SI);
      (Fault.Causality_violation 0.1, Checker.SI);
      (Fault.Write_skew 0.2, Checker.SER);
      (Fault.Lost_update 0.2, Checker.SSER);
    ]

let test_gc_equivalence_ts_modes () =
  List.iter
    (fun (ts, fault, strict_ts) ->
      for seed = 1 to 3 do
        checkb
          (Printf.sprintf "%s seed %d" (Fault.name fault) seed)
          true
          (lockstep ~ts ~strict_ts ~level:Checker.SER ~num_keys:10
             (stream_of
                (engine_history ~level:Isolation.Serializable ~fault ~seed ())))
      done)
    [
      (Ts.Trust, Fault.No_fault, true);
      (Ts.Trust, Fault.Lost_update 0.2, true);
      (Ts.Verify, Fault.No_fault, true);
      (Ts.Verify, Fault.Lost_update 0.2, true);
      (* A lying oracle can report a start_ts below the compacted
         horizon; the mismatch diagnostics then over-report, but the
         verdict pipeline is unaffected. *)
      (Ts.Verify, Fault.Ts_skew 0.3, false);
      (Ts.Verify, Fault.Ts_reorder 0.3, false);
    ]

(* A long single-session chain with an aggressive word ceiling stays at
   a flat memory floor while the unbounded twin grows without bound —
   both by the live-word estimate and by the words really reachable from
   each checker.  Freed vertex ids must be reused: a copy that only
   freed them holds per-vertex arrays for all 4000 ids, about 1/6 of
   the unbounded twin, which the 1/16 bound refuses. *)
let test_gc_bounded_growth () =
  let n = 4000 in
  let unbounded = Online.create ~level:Checker.SER ~num_keys:1 () in
  let bounded =
    Online.create ~gc:(Online.Gc_words 4096) ~level:Checker.SER ~num_keys:1 ()
  in
  for i = 1 to n do
    let t =
      Txn.make ~id:i ~session:1 [ Op.Read (0, i - 1); Op.Write (0, i) ]
    in
    checkb "unbounded ok" true (Online.add_txn unbounded t = Online.Ok_so_far);
    checkb "bounded ok" true (Online.add_txn bounded t = Online.Ok_so_far)
  done;
  checkb "gc ran" true (Online.gc_runs bounded > 0);
  checkb "stats agree" true
    (logical_stats (Online.stats unbounded)
    = logical_stats (Online.stats bounded));
  let wu = Online.live_words unbounded and wb = Online.live_words bounded in
  checkb
    (Printf.sprintf "bounded stays small (%d vs %d words)" wb wu)
    true
    (wb * 4 < wu);
  let ru = Obj.reachable_words (Obj.repr unbounded)
  and rb = Obj.reachable_words (Obj.repr bounded) in
  checkb
    (Printf.sprintf "bounded holds little (%d vs %d reachable words)" rb ru)
    true
    (rb * 16 < ru)

(* The auto policy compacts and holds the checker to a bounded size
   wherever the stream ends between two runs: under 1/8 of the words
   its unbounded twin reaches (past feed 5,000 it ranges from about
   1/15 just before a run to 1/47 just after one). *)
let test_gc_auto_policy () =
  let unbounded = Online.create ~level:Checker.SER ~num_keys:1 () in
  let bounded =
    Online.create ~gc:Online.Gc_auto ~level:Checker.SER ~num_keys:1 ()
  in
  for i = 1 to 20_000 do
    let t = Txn.make ~id:i ~session:1 [ Op.Read (0, i - 1); Op.Write (0, i) ] in
    ignore (Online.add_txn unbounded t);
    ignore (Online.add_txn bounded t)
  done;
  checkb "auto gc ran" true (Online.gc_runs bounded > 0);
  checki "all seen" 20_000 (Online.txns_seen bounded);
  let ru = Obj.reachable_words (Obj.repr unbounded)
  and rb = Obj.reachable_words (Obj.repr bounded) in
  checkb
    (Printf.sprintf "auto holds little (%d vs %d reachable words)" rb ru)
    true
    (rb * 8 < ru)

(* Idempotence: with no new transactions the second compaction finds the
   structure already at its floor and reclaims nothing. *)
(* The estimate counts what is live, not the capacity a peak left
   behind: a compaction that keeps the same two transactions of a chain
   lands on the same floor whether 1,000 or 10,000 transactions came
   before it.  An estimate counting the graph's or a table's capacity
   would carry the larger peak into the floor — the ratchet that would
   let [Gc_auto]'s 2x trigger climb after every run. *)
let test_gc_floor_forgets_peak () =
  let o = Online.create ~level:Checker.SER ~num_keys:1 () in
  let feed lo hi =
    for i = lo to hi do
      ignore
        (Online.add_txn o
           (Txn.make ~id:i ~session:1 [ Op.Read (0, i - 1); Op.Write (0, i) ]))
    done
  in
  feed 1 1_000;
  checkb "first run reclaims" true (Online.gc o > 0);
  let floor1 = Online.live_words o in
  feed 1_001 11_000;
  checkb "second run reclaims" true (Online.gc o > 0);
  checki "same floor after a larger peak" floor1 (Online.live_words o);
  checkb "invariant" true (Online.check_invariant o)

let test_gc_idempotent () =
  let o = Online.create ~level:Checker.SI ~num_keys:4 () in
  for i = 1 to 200 do
    ignore
      (Online.add_txn o
         (Txn.make ~id:i ~session:1
            [ Op.Read (i mod 4, if i <= 4 then 0 else i - 4); Op.Write (i mod 4, i) ]))
  done;
  ignore (Online.gc o);
  checki "second gc reclaims nothing" 0 (Online.gc o);
  checki "two runs counted" 2 (Online.gc_runs o)

let test_gc_noop_cases () =
  (* Before any session has fed: no-op. *)
  let o = Online.create ~level:Checker.SER ~num_keys:1 () in
  checki "fresh checker" 0 (Online.gc o);
  checki "no run counted" 0 (Online.gc_runs o);
  (* Poisoned: no-op (the frozen-state contract extends to GC). *)
  let p = Online.create ~level:Checker.SI ~num_keys:1 () in
  ignore (Online.add_txn p (Txn.make ~id:1 ~session:1 [ Op.Read (0, 0); Op.Write (0, 1) ]));
  ignore (Online.add_txn p (Txn.make ~id:2 ~session:2 [ Op.Read (0, 0); Op.Write (0, 2) ]));
  checkb "poisoned" true (Online.poisoned p <> None);
  checki "poisoned checker" 0 (Online.gc p)

let test_gc_policy_strings () =
  List.iter
    (fun (s, g) ->
      checkb s true (Online.gc_of_string s = Some g);
      Alcotest.check Alcotest.string "round trip" s (Online.gc_to_string g))
    [
      ("off", Online.Gc_off);
      ("auto", Online.Gc_auto);
      ("1048576", Online.Gc_words 1048576);
    ];
  checkb "garbage rejected" true (Online.gc_of_string "bogus" = None);
  checkb "negative rejected" true (Online.gc_of_string "-3" = None)

(* Snapshot round-trip across compactions: encode a GC'd checker
   mid-stream, decode it, and both twins must agree on the rest of the
   stream (outcomes, renderings, logical stats). *)
let test_gc_restore_roundtrip () =
  List.iter
    (fun (fault, level) ->
      for seed = 1 to 2 do
        let stream =
          stream_of (engine_history ~level:Isolation.Snapshot ~fault ~seed ())
        in
        let n = List.length stream in
        let split = n / 2 in
        let o =
          Online.create ~gc:Online.Gc_auto ~level ~num_keys:10 ()
        in
        let sessions =
          List.sort_uniq compare (List.map (fun t -> t.Txn.session) stream)
        in
        let seen = Hashtbl.create 8 in
        let rest = ref [] in
        List.iteri
          (fun i txn ->
            if i < split then begin
              Hashtbl.replace seen txn.Txn.session ();
              ignore (Online.add_txn o txn);
              if Hashtbl.length seen = List.length sessions then
                ignore (Online.gc o)
            end
            else rest := txn :: !rest)
          stream;
        let rest = List.rev !rest in
        match Online.poisoned o with
        | Some _ -> () (* violation landed in the first half; nothing to restore *)
        | None ->
            let buf = Buffer.create 1024 in
            Online.encode buf o;
            let o' = Online.decode (Binio_core.reader (Buffer.contents buf)) in
            checkb "policy restored" true
              ((Online.settings o').gc = Online.Gc_auto);
            List.iter
              (fun txn ->
                let ra = Online.add_txn o txn in
                let rb = Online.add_txn o' txn in
                (match (ra, rb) with
                | Online.Ok_so_far, Online.Ok_so_far -> ()
                | Online.Violation va, Online.Violation vb ->
                    Alcotest.check Alcotest.string "same rendering" (render va)
                      (render vb)
                | _ -> Alcotest.fail "restored checker diverged");
                checkb "stats agree" true
                  (logical_stats (Online.stats o)
                  = logical_stats (Online.stats o')))
              rest
      done)
    [
      (Fault.No_fault, Checker.SER);
      (Fault.Lost_update 0.3, Checker.SI);
    ]

(* QCheck: random engine configurations, GC-after-every-txn, across
   levels and timestamp modes. *)
let config_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* num_keys = int_range 2 16 in
    let* num_txns = int_range 20 200 in
    let* num_sessions = int_range 1 6 in
    let* level = oneofl [ Checker.SI; Checker.SER; Checker.SSER ] in
    let* ts = oneofl [ Ts.Ignore; Ts.Trust; Ts.Verify ] in
    let* fault =
      oneofl
        [ Fault.No_fault; Fault.Lost_update 0.15; Fault.Aborted_read 0.15;
          Fault.Causality_violation 0.1; Fault.Write_skew 0.15 ]
    in
    return (seed, num_keys, num_txns, num_sessions, level, ts, fault))

let print_config (seed, num_keys, num_txns, num_sessions, level, ts, fault) =
  Printf.sprintf "seed=%d keys=%d txns=%d sessions=%d level=%s ts=%s fault=%s"
    seed num_keys num_txns num_sessions (Checker.level_name level)
    (match ts with Ts.Ignore -> "ignore" | Ts.Trust -> "trust" | Ts.Verify -> "verify")
    (Fault.name fault)

let prop_gc_equals_unbounded =
  QCheck2.Test.make ~name:"aggressive GC == unbounded (engine histories)"
    ~count:60 ~print:print_config config_gen
    (fun (seed, num_keys, num_txns, num_sessions, level, ts, fault) ->
      let spec =
        Mt_gen.generate
          { Mt_gen.num_sessions; num_txns; num_keys;
            dist = Distribution.Uniform; seed }
      in
      let db = { Db.level = Isolation.Serializable; fault; num_keys; seed } in
      let h =
        (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db
           ~spec ())
          .Scheduler.history
      in
      lockstep ~ts ~level ~num_keys (stream_of h))

(* --- unpackable values end to end ------------------------------------ *)

(* Every non-initial value negated on keys = 1 mod 3 and moved past the
   packing bound on keys = 2 mod 3: those versions all take the version
   table's spill path.  Values are only ever compared for equality, so
   the verdict position, the anomaly class and the logical stats must
   not move — under no GC, under compaction after every feed (once every
   session has fed), and under compaction plus a snapshot round trip
   every 25 feeds. *)
let unpackable ~num_keys (t : Txn.t) =
  let bound = (max_int / num_keys) + 1 in
  let f k v =
    if v = 0 then v
    else if k mod 3 = 1 then -v
    else if k mod 3 = 2 then v + bound
    else v
  in
  Txn.make ~id:t.id ~session:t.session ~status:t.status ~start_ts:t.start_ts
    ~commit_ts:t.commit_ts
    (List.map
       (function
         | Op.Write (k, v) -> Op.Write (k, f k v)
         | Op.Read (k, v) -> Op.Read (k, f k v))
       (Array.to_list t.ops))

(* First violation (position and anomaly class) and the final logical
   stats of one run; [mode] 0 = no GC, 1 = GC after every feed once all
   sessions have fed, 2 = the same plus a snapshot round trip every 25
   feeds. *)
let verdict_run ~mode ~ts ~level ~num_keys stream =
  let o = ref (Online.create ~ts ~level ~num_keys ()) in
  let sessions =
    List.length
      (List.sort_uniq compare (List.map (fun t -> t.Txn.session) stream))
  in
  let seen = Hashtbl.create 8 in
  let rec go i = function
    | [] -> None
    | txn :: rest -> (
        Hashtbl.replace seen txn.Txn.session ();
        match Online.add_txn !o txn with
        | Online.Violation v -> Some (i, Report.classify v)
        | Online.Ok_so_far ->
            if mode > 0 && Hashtbl.length seen = sessions then
              ignore (Online.gc !o);
            if mode = 2 && (i + 1) mod 25 = 0 then begin
              let buf = Buffer.create 1024 in
              Online.encode buf !o;
              o := Online.decode (Binio_core.reader (Buffer.contents buf))
            end;
            go (i + 1) rest)
  in
  let first = go 0 stream in
  let s = Online.stats !o in
  (first, logical_stats s, s.Online.s_gc_runs)

let test_unpackable_values_metamorphic () =
  let num_keys = 10 in
  List.iter
    (fun fault ->
      for seed = 1 to 2 do
        let stream =
          stream_of
            (engine_history ~num_txns:150 ~level:Isolation.Snapshot ~fault
               ~seed ())
        in
        let spilled = List.map (unpackable ~num_keys) stream in
        List.iter
          (fun level ->
            List.iter
              (fun ts ->
                for mode = 0 to 2 do
                  checkb
                    (Printf.sprintf "%s seed %d %s ts %s gc mode %d"
                       (Fault.name fault) seed (Checker.level_name level)
                       (Ts.mode_name ts) mode)
                    true
                    (verdict_run ~mode ~ts ~level ~num_keys stream
                    = verdict_run ~mode ~ts ~level ~num_keys spilled)
                done)
              [ Ts.Ignore; Ts.Verify; Ts.Trust ])
          [ Checker.SI; Checker.SER; Checker.SSER ]
      done)
    [ Fault.No_fault; Fault.Lost_update 0.2; Fault.Aborted_read 0.2;
      Fault.Causality_violation 0.1; Fault.Write_skew 0.2 ]

(* --- O(1) live-word accounting -------------------------------------- *)

(* Feed [stream] under [gc], demanding {!Online.check_invariant} (the
   running capacity totals behind [live_words] equal a recount) before
   the first feed and after every one.  At index [restore_at] a live
   checker is encoded and decoded, and the rest of the stream goes to
   the restored copy, whose totals come from the decode-time recount. *)
let invariant_along ?(restore_at = -1) ?(ts = Ts.Ignore) ~gc ~level ~num_keys
    stream =
  let o = ref (Online.create ~ts ~gc ~level ~num_keys ()) in
  let ok = ref (Online.check_invariant !o) in
  List.iteri
    (fun i txn ->
      if i = restore_at && Online.poisoned !o = None then begin
        let buf = Buffer.create 1024 in
        Online.encode buf !o;
        o := Online.decode (Binio_core.reader (Buffer.contents buf));
        ok := !ok && Online.check_invariant !o
      end;
      ignore (Online.add_txn !o txn);
      ok := !ok && Online.check_invariant !o)
    stream;
  (!ok, !o)

(* Aborted writes pile up in their key's pending vector until the next
   committed write on that key: six of them grow x0's vector past its
   initial 4 slots, and after a restore past its exact-fit decoded
   capacity too. *)
let test_ab_pending_growth () =
  let feed o txn =
    ignore (Online.add_txn o txn);
    checkb (Printf.sprintf "invariant after T%d" txn.Txn.id) true
      (Online.check_invariant o)
  in
  let aborted id v =
    Txn.make ~id ~session:2 ~status:Txn.Aborted [ Op.Write (0, v) ]
  in
  let o = Online.create ~level:Checker.SER ~num_keys:2 () in
  checkb "fresh" true (Online.check_invariant o);
  feed o (Txn.make ~id:1 ~session:1 [ Op.Read (0, 0); Op.Write (0, 1) ]);
  for id = 2 to 7 do
    feed o (aborted id (100 + id))
  done;
  let buf = Buffer.create 256 in
  Online.encode buf o;
  let o' = Online.decode (Binio_core.reader (Buffer.contents buf)) in
  checkb "restored" true (Online.check_invariant o');
  List.iter
    (fun o ->
      for id = 8 to 14 do
        feed o (aborted id (100 + id))
      done;
      (* the committed overwrite shadows (and clears) every pending
         aborted version of x0 *)
      feed o (Txn.make ~id:15 ~session:1 [ Op.Read (0, 1); Op.Write (0, 2) ]);
      feed o (aborted 16 116);
      checkb "no violation" true (Online.poisoned o = None))
    [ o; o' ]

(* A clean stream long enough for [Gc_auto] to compact several times;
   the engine's conflict aborts (about a quarter of the feeds) keep the
   pending vectors moving. *)
let test_live_words_auto_gc () =
  let stream =
    stream_of
      (engine_history ~num_txns:2000 ~num_sessions:4 ~level:Isolation.Snapshot
         ~fault:Fault.No_fault ~seed:5 ())
  in
  let ok, o =
    invariant_along ~restore_at:1500 ~gc:Online.Gc_auto ~level:Checker.SI
      ~num_keys:10 stream
  in
  checkb "invariant after every feed" true ok;
  checkb "not poisoned" true (Online.poisoned o = None);
  checkb "auto gc ran" true (Online.gc_runs o > 0)

let accounting_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* num_keys = int_range 2 16 in
    let* num_txns = int_range 50 400 in
    let* num_sessions = int_range 1 6 in
    let* level = oneofl [ Checker.SI; Checker.SER; Checker.SSER ] in
    let* ts = oneofl [ Ts.Ignore; Ts.Trust; Ts.Verify ] in
    let* fault = oneofl [ Fault.Aborted_read 0.2; Fault.Lost_update 0.2 ] in
    let* gc =
      oneof
        [ return Online.Gc_off; return Online.Gc_auto;
          map (fun n -> Online.Gc_words n) (int_range 1_000 4_000) ]
    in
    let* restore_pct = int_range 0 99 in
    return
      ((seed, num_keys, num_txns, num_sessions, level, ts, fault), gc,
       restore_pct))

let prop_live_words_accounting =
  QCheck2.Test.make
    ~name:"live-word totals == recount after every feed (gc policies, restore)"
    ~count:60
    ~print:(fun (cfg, gc, restore_pct) ->
      Printf.sprintf "%s gc=%s restore_at=%d%%" (print_config cfg)
        (Online.gc_to_string gc) restore_pct)
    accounting_gen
    (fun ((seed, num_keys, num_txns, num_sessions, level, ts, fault), gc,
          restore_pct) ->
      let spec =
        Mt_gen.generate
          { Mt_gen.num_sessions; num_txns; num_keys;
            dist = Distribution.Uniform; seed }
      in
      let db = { Db.level = Isolation.Serializable; fault; num_keys; seed } in
      let stream =
        stream_of
          (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db
             ~spec ())
            .Scheduler.history
      in
      (* the auto trigger first looks at feed 64: the GC precondition
         (every session has fed before the first compaction) must hold
         by then *)
      let first = Hashtbl.create 8 in
      List.iteri
        (fun i t ->
          if not (Hashtbl.mem first t.Txn.session) then
            Hashtbl.add first t.Txn.session i)
        stream;
      QCheck2.assume
        (gc = Online.Gc_off || Hashtbl.fold (fun _ i acc -> acc && i < 63) first true);
      let restore_at = List.length stream * restore_pct / 100 in
      fst (invariant_along ~restore_at ~ts ~gc ~level ~num_keys stream))

(* The compaction's sub-spans nest inside its [online/gc] span. *)
let test_gc_subspans () =
  let o = Online.create ~ts:Ts.Trust ~level:Checker.SSER ~num_keys:10 () in
  List.iter
    (fun t -> ignore (Online.add_txn o t))
    (stream_of
       (engine_history ~level:Isolation.Strict_serializable
          ~fault:Fault.No_fault ~seed:3 ()));
  Obs.Trace.clear ();
  Obs.Trace.enable ();
  Fun.protect ~finally:Obs.Trace.disable (fun () -> ignore (Online.gc o));
  let events = Obs.Trace.events () in
  Obs.Trace.clear ();
  let named n = List.filter (fun e -> e.Obs.Trace.ev_name = n) events in
  match named "online/gc" with
  | [ p ] ->
      List.iter
        (fun child ->
          match named child with
          | [ c ] ->
              checkb (child ^ " starts inside online/gc") true
                (p.Obs.Trace.ev_t0 <= c.Obs.Trace.ev_t0);
              checkb (child ^ " ends inside online/gc") true
                (c.Obs.Trace.ev_t0 + c.Obs.Trace.ev_dur
                <= p.Obs.Trace.ev_t0 + p.Obs.Trace.ev_dur)
          | l -> Alcotest.failf "%d %s spans, expected 1" (List.length l) child)
        [ "online/gc/versions"; "online/gc/pin"; "online/gc/graph";
          "online/gc/vertices" ]
  | l -> Alcotest.failf "%d online/gc spans, expected 1" (List.length l)

(* One trigger for both policies: a word ceiling waits for twice the
   post-GC floor as [Gc_auto] does, so a ceiling at half the unbounded
   run's final live words — where the floor soon sits near it — makes
   no more compactions than [Gc_auto] on the same 10k stream, instead of
   one after nearly every 64-feed check. *)
let test_gc_words_trigger () =
  let runs gc =
    let p = { Stream_gen.default with num_txns = 10_000 } in
    let o =
      Online.create ~gc ~level:Checker.SER ~num_keys:p.Stream_gen.num_keys ()
    in
    Stream_gen.generate p (fun txn ->
        checkb "clean stream" true (Online.add_txn o txn = Online.Ok_so_far));
    Online.stats o
  in
  let off = runs Online.Gc_off and auto = runs Online.Gc_auto in
  let words = runs (Online.Gc_words (off.Online.s_live_words / 2)) in
  checkb "auto compacts" true (auto.Online.s_gc_runs > 0);
  checkb "words compacts" true (words.Online.s_gc_runs > 0);
  checkb
    (Printf.sprintf "words runs %d <= auto runs %d" words.Online.s_gc_runs
       auto.Online.s_gc_runs)
    true
    (words.Online.s_gc_runs <= auto.Online.s_gc_runs)

let suite =
  [
    ("GC == unbounded on clean engines", `Quick, test_gc_equivalence_clean);
    ("GC == unbounded on faulty engines", `Quick, test_gc_equivalence_faulty);
    ("GC == unbounded under ts modes", `Quick, test_gc_equivalence_ts_modes);
    ("bounded growth on a long chain", `Quick, test_gc_bounded_growth);
    ("auto policy triggers", `Quick, test_gc_auto_policy);
    ("a word ceiling waits for twice the floor", `Quick,
     test_gc_words_trigger);
    ("GC floor forgets the peak", `Quick, test_gc_floor_forgets_peak);
    ("compaction is idempotent", `Quick, test_gc_idempotent);
    ("no-op on fresh and poisoned checkers", `Quick, test_gc_noop_cases);
    ("policy spellings round-trip", `Quick, test_gc_policy_strings);
    ("snapshot round-trip across GC", `Quick, test_gc_restore_roundtrip);
    qtest prop_gc_equals_unbounded;
    ("unpackable values: same verdicts and stats", `Quick,
     test_unpackable_values_metamorphic);
    ("aborted writes grow a pending vector", `Quick, test_ab_pending_growth);
    ("live-word totals hold through auto GC", `Quick, test_live_words_auto_gc);
    qtest prop_live_words_accounting;
    ("gc sub-spans nest inside online/gc", `Quick, test_gc_subspans);
  ]
