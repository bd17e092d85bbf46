(* Ablations of the design choices DESIGN.md calls out:

   1. SSER real-time encoding: the paper's Θ(n²) pairwise RT edges vs our
      O(n log n) helper-chain sweep (Section IV-C/IV-D discussion).
   2. CHECKSI's early DIVERGENCE screen (Algorithm 1 line 2): detection
      latency with the screen vs relying on the composed-graph cycle
      search alone (on divergent histories the screen answers first;
      correctness is unaffected because divergence also shows up as an
      RW-RW cycle at SER).
   3. Cobra's constraint pruning on vs off: how much the reachability
      pruning contributes to the baseline's performance on MT histories
      (paper Section V-B). *)

let run () =
  Bench_util.section "Ablations";

  Bench_util.subsection
    "(1) SSER real-time encoding: naive pairwise vs helper-chain sweep";
  Bench_util.print_table
    ~header:[ "#txns"; "naive RT (ms)"; "sweep RT (ms)"; "speedup" ]
    (Bench_util.par_map
       (fun txns ->
         let r =
           Bench_util.mt_history ~level:Isolation.Strict_serializable
             ~keys:200 ~txns ~seed:601 ()
         in
         let h = r.Scheduler.history in
         let naive =
           Bench_util.time_median (fun () ->
               Checker.check_sser ~rt_mode:Deps.Rt_naive h)
         in
         let sweep =
           Bench_util.time_median (fun () ->
               Checker.check_sser ~rt_mode:Deps.Rt_sweep h)
         in
         [ string_of_int txns; Bench_util.ms naive; Bench_util.ms sweep;
           Printf.sprintf "%.0fx" (naive /. sweep) ])
       (Bench_util.sweep (List.map Bench_util.scale [ 500; 1000; 2000; 4000 ])));

  Bench_util.subsection
    "(2) CHECKSI divergence screen vs full composed-graph check (divergent history)";
  (* A lost-update-prone engine: the screen finds the violation without
     building the composed graph. *)
  let r =
    let spec =
      Targeted.contended ~keys:40 ~txns:(Bench_util.scale 4000) ~seed:602 ()
    in
    let db =
      { Db.level = Isolation.Snapshot; fault = Fault.Lost_update 0.05;
        num_keys = 40; seed = 602 }
    in
    Scheduler.run ~db ~spec ()
  in
  let h = r.Scheduler.history in
  let with_screen = Bench_util.time_median (fun () -> Checker.check_si h) in
  (* Without the screen, the same violation is still caught (as an RW-RW
     cycle) by the SER check over the same dependency graph. *)
  let without_screen = Bench_util.time_median (fun () -> Checker.check_ser h) in
  let rows =
    [
      [ "divergence screen first (CHECKSI)"; Bench_util.ms with_screen;
        Bench_util.verdict_str (Checker.passes (Checker.check_si h)) ];
      [ "cycle search only (CHECKSER oracle)"; Bench_util.ms without_screen;
        Bench_util.verdict_str (Checker.passes (Checker.check_ser h)) ];
    ]
  in
  Bench_util.print_table ~header:[ "variant"; "time (ms)"; "verdict" ] rows;
  (* The engine loses updates: both variants must catch it. *)
  Bench_util.expect_verdicts "ablation (2)" "VIOLATION" rows;

  Bench_util.subsection "(3) Cobra constraint pruning on vs off (MT history)";
  let r =
    Bench_util.mt_history ~keys:300 ~txns:(Bench_util.scale 2000) ~seed:603 ()
  in
  let h = r.Scheduler.history in
  (match Polygraph.build h with
  | Error _ -> print_endline "  (history rejected by the G1 screen)"
  | Ok pg ->
      let pruned, t_pruned =
        Stats.time_it (fun () -> Polygraph.prune ~level:Checker.SER pg)
      in
      Bench_util.print_table
        ~header:[ "variant"; "constraints to SAT"; "prep (ms)" ]
        [
          [ "with pruning";
            string_of_int (List.length pruned.Polygraph.undecided);
            Bench_util.ms t_pruned ];
          [ "without pruning";
            string_of_int (Polygraph.num_constraints pg);
            Bench_util.ms pg.Polygraph.construct_s ];
        ];
      print_endline
        "  (without pruning every constraint becomes a SAT variable; with\n\
        \   it, valid MT histories usually need no solving at all)")
