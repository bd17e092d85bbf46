(* Figure 17 (Appendix D): end-to-end SI checking — MTC-SI (MT workloads)
   vs PolySI (GT workloads), time decomposed into generation and
   verification, plus the verifier's memory. *)

let header =
  [ "checker/config"; "gen (ms)"; "verify (ms)"; "non-solver (ms)";
    "solver (ms)"; "verify alloc (MB)"; "verdict" ]

(* Every history comes from a healthy engine, so every row must pass. *)
let table rows =
  Bench_util.print_table ~header rows;
  Bench_util.expect_verdicts "fig17" "pass" rows

let mtc_row label ~keys ~txns ~seed =
  let r, gen =
    Stats.time_it (fun () ->
        Bench_util.mt_history ~level:Isolation.Snapshot ~keys ~txns ~seed ())
  in
  let outcome, alloc =
    Bench_util.alloc_during (fun () -> Checker.check_si r.Scheduler.history)
  in
  let verify =
    Bench_util.time_median (fun () -> Checker.check_si r.Scheduler.history)
  in
  [
    "MTC-SI " ^ label;
    Bench_util.ms gen;
    Bench_util.ms verify;
    "-";
    "-";
    Bench_util.mb alloc;
    Bench_util.verdict_str (Checker.passes outcome);
  ]

let polysi_row label ~keys ~txns ~seed =
  let r, gen =
    Stats.time_it (fun () ->
        Bench_util.gt_history ~level:Isolation.Snapshot ~keys ~txns ~ops:8 ~seed ())
  in
  let res, alloc =
    Bench_util.alloc_during (fun () ->
        Polygraph.check ~level:Checker.SI r.Scheduler.history)
  in
  let s = res.Polygraph.stats in
  [
    "PolySI " ^ label;
    Bench_util.ms gen;
    Bench_util.ms (Polygraph.total_s s);
    Bench_util.ms (Polygraph.nonsolver_s s);
    Bench_util.ms s.Polygraph.solve_s;
    Bench_util.mb alloc;
    Bench_util.verdict_str res.Polygraph.ok;
  ]

let run () =
  Bench_util.section
    "Figure 17: end-to-end SI checking, MTC-SI (MT) vs PolySI (GT)";
  Bench_util.subsection "#txns sweep (100 keys, 10 sessions, GT: 8 ops/txn)";
  table
    (List.concat
       (Bench_util.par_map
          (fun txns ->
            let label = Printf.sprintf "%d txns" txns in
            [
              mtc_row label ~keys:100 ~txns ~seed:171;
              polysi_row label ~keys:100 ~txns ~seed:171;
            ])
          (Bench_util.sweep (List.map Bench_util.scale [ 250; 500; 1000 ]))))
