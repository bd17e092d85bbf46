(* Figure 10: end-to-end SER checking — MTC (MT workloads) vs Cobra (GT
   workloads), with time decomposed into history generation and
   verification (a-c) and the verifier's memory (d-f).  Cobra's
   verification time is further split into its non-solver components
   (polygraph construction + pruning + encoding) and SAT solving, the
   paper's key observation in Section V-D. *)

let mtc_row label ~keys ~txns ~sessions ~seed =
  let r, gen =
    Stats.time_it (fun () ->
        Bench_util.mt_history ~sessions ~keys ~txns ~seed ())
  in
  let (outcome, alloc) =
    Bench_util.alloc_during (fun () -> Checker.check_ser r.Scheduler.history)
  in
  let verify = Bench_util.time_median (fun () -> Checker.check_ser r.Scheduler.history) in
  [
    "MTC " ^ label;
    Bench_util.ms gen;
    Bench_util.ms verify;
    "-";
    "-";
    Bench_util.mb alloc;
    Bench_util.verdict_str (Checker.passes outcome);
  ]

let cobra_row label ~keys ~txns ~sessions ~ops ~seed =
  let r, gen =
    Stats.time_it (fun () ->
        Bench_util.gt_history ~sessions ~keys ~txns ~ops ~seed ())
  in
  let (res, alloc) =
    Bench_util.alloc_during (fun () ->
        Polygraph.check ~level:Checker.SER r.Scheduler.history)
  in
  let s = res.Polygraph.stats in
  [
    "Cobra " ^ label;
    Bench_util.ms gen;
    Bench_util.ms (Polygraph.total_s s);
    Bench_util.ms (Polygraph.nonsolver_s s);
    Bench_util.ms s.Polygraph.solve_s;
    Bench_util.mb alloc;
    Bench_util.verdict_str res.Polygraph.ok;
  ]

let header =
  [ "checker/config"; "gen (ms)"; "verify (ms)"; "non-solver (ms)";
    "solver (ms)"; "verify alloc (MB)"; "verdict" ]

(* Every history comes from a healthy engine, so every row must pass. *)
let table rows =
  Bench_util.print_table ~header rows;
  Bench_util.expect_verdicts "fig10" "pass" rows

let run () =
  Bench_util.section
    "Figure 10: end-to-end SER checking, MTC (MT) vs Cobra (GT)";

  Bench_util.subsection "(a)+(d) #txns sweep (100 keys, 10 sessions, GT: 8 ops/txn)";
  table
    (List.concat
       (Bench_util.par_map
          (fun txns ->
            let label = Printf.sprintf "%d txns" txns in
            [
              mtc_row label ~keys:100 ~txns ~sessions:10 ~seed:401;
              cobra_row label ~keys:100 ~txns ~sessions:10 ~ops:8 ~seed:401;
            ])
          (Bench_util.sweep (List.map Bench_util.scale [ 250; 500; 1000; 2000 ]))));

  let txns1k = Bench_util.scale 1000 in
  Bench_util.subsection "(b)+(e) #ops/txn sweep for GT (100 keys, 1000 txns; MT fixed at <=4)";
  table
    (mtc_row "(<=4 ops)" ~keys:100 ~txns:txns1k ~sessions:10 ~seed:402
    :: Bench_util.par_map
         (fun ops ->
           cobra_row
             (Printf.sprintf "%d ops/txn" ops)
             ~keys:100 ~txns:txns1k ~sessions:10 ~ops ~seed:402)
         (Bench_util.sweep [ 4; 8; 16 ]));

  Bench_util.subsection "(c)+(f) #objects sweep (1000 txns, 10 sessions, GT: 8 ops/txn)";
  table
    (List.concat
       (Bench_util.par_map
          (fun keys ->
            let label = Printf.sprintf "%d objects" keys in
            [
              mtc_row label ~keys ~txns:txns1k ~sessions:10 ~seed:403;
              cobra_row label ~keys ~txns:txns1k ~sessions:10 ~ops:8 ~seed:403;
            ])
          (Bench_util.sweep [ 400; 200; 100; 50 ])))
