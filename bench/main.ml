(* The benchmark harness: one section per table/figure of the paper's
   evaluation (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe                   # everything
     dune exec bench/main.exe -- --only fig7    # one experiment
     dune exec bench/main.exe -- --list         # list experiment names
     dune exec bench/main.exe -- -j 8           # parallel config sweeps
     dune exec bench/main.exe -- --json out.jsonl   # machine-readable copy
     dune exec bench/main.exe -- --smoke        # tiny config per experiment *)

let experiments =
  [
    ("fig7", "SER verification: MTC-SER vs Cobra", Fig7.run);
    ("fig8", "SI verification: MTC-SI vs PolySI", Fig8.run);
    ("fig9", "SSER/LIN verification: MTC-SSER vs Porcupine", Fig9.run);
    ("fig10", "end-to-end SER: time + memory", Fig10.run);
    ("fig11", "abort rates: GT vs MT", Fig11.run);
    ("table2", "rediscovered bugs (+ figures 12/18 counterexamples)",
     fun () -> Table2.run ());
    ("fig13", "detection effectiveness + end-to-end time vs Elle (fig 14)",
     Fig13.run);
    ("fig17", "end-to-end SI: time + memory", Fig17.run);
    ("ablation", "design-choice ablations (RT encoding, divergence screen, pruning)",
     Ablation.run);
    ("kernels", "bechamel microbenchmarks of the verification kernels",
     Kernels.run);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [--list] [--only <experiment>] [-j N] [--json FILE] \
     [--smoke]\n";
  exit 1

type opts = {
  mutable only : string option;
  mutable jobs : int;
  mutable json : string option;
  mutable list_only : bool;
}

let parse_args args =
  let o = { only = None; jobs = 1; json = None; list_only = false } in
  let rec go = function
    | [] -> o
    | "--list" :: rest ->
        o.list_only <- true;
        go rest
    | "--only" :: name :: rest ->
        o.only <- Some name;
        go rest
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
            o.jobs <- (if n = 0 then Pool.default_size () else n);
            go rest
        | _ -> usage ())
    | "--json" :: file :: rest ->
        o.json <- Some file;
        go rest
    | "--smoke" :: rest ->
        Bench_util.smoke := true;
        go rest
    | _ -> usage ()
  in
  go args

let run_one ~json_oc (name, _, run) =
  Bench_util.begin_experiment ();
  let (), elapsed = Stats.time_it run in
  match json_oc with
  | None -> ()
  | Some oc ->
      output_string oc (Bench_util.experiment_json ~name ~elapsed_s:elapsed);
      flush oc

let () =
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  if o.list_only then
    List.iter
      (fun (name, descr, _) -> Printf.printf "%-8s %s\n" name descr)
      experiments
  else begin
    if o.jobs > 1 then Bench_util.pool := Some (Pool.create ~size:o.jobs ());
    let json_oc =
      Option.map
        (fun file ->
          try open_out file
          with Sys_error msg ->
            Printf.eprintf "cannot open --json file: %s\n" msg;
            exit 1)
        o.json
    in
    let selected =
      match o.only with
      | Some names ->
          (* comma-separated, run in listed order *)
          List.map
            (fun name ->
              match List.find_opt (fun (n, _, _) -> n = name) experiments with
              | Some e -> e
              | None ->
                  Printf.eprintf "unknown experiment %S; try --list\n" name;
                  exit 1)
            (String.split_on_char ',' names)
      | None ->
          Printf.printf
            "MTC benchmark harness — reproducing the paper's evaluation.\n\
             Shapes (who wins, trends), not absolute numbers, are the target;\n\
             see EXPERIMENTS.md for the paper-vs-measured comparison.\n";
          experiments
    in
    List.iter (run_one ~json_oc) selected;
    Option.iter close_out json_oc;
    Option.iter Pool.shutdown !Bench_util.pool;
    if !Bench_util.misses <> [] then begin
      List.iter (Printf.eprintf "gate failed: %s\n") (List.rev !Bench_util.misses);
      exit 1
    end
  end
