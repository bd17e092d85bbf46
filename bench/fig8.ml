(* Figure 8: verification performance on SI mini-transaction histories —
   MTC-SI vs PolySI, same four sweeps as Figure 7. *)

let row label (r : Scheduler.result) =
  let mtc, polysi, stats =
    Bench_util.verify_pair ("fig8: " ^ label) Checker.SI r.Scheduler.history
  in
  [
    label;
    Bench_util.ms mtc;
    Bench_util.ms polysi;
    Printf.sprintf "%.0fx" (polysi /. mtc);
    string_of_int stats.Polygraph.constraints_total;
    string_of_int stats.Polygraph.constraints_pruned;
  ]

let header =
  [ "config"; "MTC-SI (ms)"; "PolySI (ms)"; "speedup"; "constraints"; "pruned" ]

let run () =
  Bench_util.section "Figure 8: SI verification, MTC-SI vs PolySI (MT histories)";
  let level = Isolation.Snapshot in
  let txns = Bench_util.scale 2000 in

  Bench_util.subsection "(a) object-access distribution (2000 txns, 400 keys)";
  Bench_util.print_table ~header
    (Bench_util.par_map
       (fun dist ->
         let r =
           Bench_util.mt_history ~level ~dist ~keys:400 ~txns ~seed:201 ()
         in
         row (Distribution.kind_name dist) r)
       (Bench_util.sweep Distribution.all_kinds));

  Bench_util.subsection "(b) #objects (2000 txns, zipfian)";
  Bench_util.print_table ~header
    (Bench_util.par_map
       (fun keys ->
         let r =
           Bench_util.mt_history ~level ~dist:(Distribution.Zipfian 0.99) ~keys
             ~txns ~seed:202 ()
         in
         row (Printf.sprintf "%d objects" keys) r)
       (Bench_util.sweep [ 1600; 800; 400; 200 ]));

  Bench_util.subsection "(c) #sessions (2000 txns, 400 keys, uniform)";
  Bench_util.print_table ~header
    (Bench_util.par_map
       (fun sessions ->
         let r =
           Bench_util.mt_history ~level ~sessions ~keys:400 ~txns ~seed:203 ()
         in
         row (Printf.sprintf "%d sessions" sessions) r)
       (Bench_util.sweep [ 4; 8; 16; 32 ]));

  Bench_util.subsection "(d) #txns (400 keys, uniform)";
  Bench_util.print_table ~header
    (Bench_util.par_map
       (fun txns ->
         let r = Bench_util.mt_history ~level ~keys:400 ~txns ~seed:204 () in
         row (Printf.sprintf "%d txns" txns) r)
       (Bench_util.sweep (List.map Bench_util.scale [ 1000; 2000; 4000; 8000 ])))
