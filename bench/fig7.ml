(* Figure 7: verification performance on SER mini-transaction histories —
   MTC-SER vs Cobra, across (a) object-access distributions, (b) #objects,
   (c) #sessions, (d) #txns. *)

let row label (r : Scheduler.result) =
  let mtc, cobra, stats =
    Bench_util.verify_pair ("fig7: " ^ label) Checker.SER r.Scheduler.history
  in
  [
    label;
    Bench_util.ms mtc;
    Bench_util.ms cobra;
    Printf.sprintf "%.1fx" (cobra /. mtc);
    string_of_int stats.Polygraph.constraints_total;
    string_of_int stats.Polygraph.constraints_pruned;
  ]

let header = [ "config"; "MTC-SER (ms)"; "Cobra (ms)"; "speedup"; "constraints"; "pruned" ]

let run () =
  Bench_util.section "Figure 7: SER verification, MTC-SER vs Cobra (MT histories)";
  let txns = Bench_util.scale 3000 in

  Bench_util.subsection "(a) object-access distribution (3000 txns, 600 keys)";
  Bench_util.print_table ~header
    (Bench_util.par_map
       (fun dist ->
         let r = Bench_util.mt_history ~dist ~keys:600 ~txns ~seed:101 () in
         row (Distribution.kind_name dist) r)
       (Bench_util.sweep Distribution.all_kinds));

  Bench_util.subsection "(b) #objects (3000 txns, zipfian)";
  Bench_util.print_table ~header
    (Bench_util.par_map
       (fun keys ->
         let r =
           Bench_util.mt_history ~dist:(Distribution.Zipfian 0.99) ~keys
             ~txns ~seed:102 ()
         in
         row (Printf.sprintf "%d objects" keys) r)
       (Bench_util.sweep [ 1600; 800; 400; 200 ]));

  Bench_util.subsection "(c) #sessions (3000 txns, 600 keys, uniform)";
  Bench_util.print_table ~header
    (Bench_util.par_map
       (fun sessions ->
         let r = Bench_util.mt_history ~sessions ~keys:600 ~txns ~seed:103 () in
         row (Printf.sprintf "%d sessions" sessions) r)
       (Bench_util.sweep [ 4; 8; 16; 32 ]));

  Bench_util.subsection "(d) #txns (600 keys, uniform)";
  Bench_util.print_table ~header
    (Bench_util.par_map
       (fun txns ->
         let r = Bench_util.mt_history ~keys:600 ~txns ~seed:104 () in
         row (Printf.sprintf "%d txns" txns) r)
       (Bench_util.sweep (List.map Bench_util.scale [ 1000; 2000; 4000; 8000 ])))
