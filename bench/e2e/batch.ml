(* The check workloads: `mtc check` on a generated corpus, timed from
   outside the process, and the traced replay that splits one check
   across the library's layers. *)

type config = {
  corpus : Inputs.corpus;
  format : Inputs.format;
  level : Checker.level;
  ts : Ts.mode;
  jobs : int;
}

let corpus_file cfg =
  match cfg.format with Inputs.Bin -> "corpus.bin" | Inputs.Text -> "corpus.hist"

let flags cfg =
  [ "check"; "--level"; Checker.level_name cfg.level; "-j"; string_of_int cfg.jobs ]
  @ if cfg.ts = Ts.Ignore then [] else [ "--timestamps"; Ts.mode_name cfg.ts ]

type run = { wall_s : float; usage : Proc.usage; out : string }

let run_check ~mtc args =
  let t0 = Measure.now () in
  let pid = Proc.spawn ~log:"check.out" mtc args in
  let usage = Proc.wait pid in
  { wall_s = Measure.now () -. t0; usage; out = Proc.read_file "check.out" }

let passed cfg r =
  r.usage.Proc.code = 0
  && List.mem (Checker.level_name cfg.level ^ ": PASS") (String.split_on_char '\n' r.out)

let clean_check ~mtc tally cfg =
  let r = run_check ~mtc (flags cfg @ [ corpus_file cfg ]) in
  Measure.expect tally (passed cfg r) "mtc check of the clean corpus: exit %d, %s"
    r.usage.Proc.code (String.trim r.out);
  r

(* Set-up is writing the corpus; it runs [reps] times so its time is a
   median too.  A text corpus is materialised whole, hence the child. *)
let setup cfg ~seed ~reps =
  List.init reps (fun _ ->
      let t0 = Measure.now () in
      if
        not
          (Proc.in_child (fun () ->
               Inputs.write_corpus cfg.corpus ~seed ~format:cfg.format (corpus_file cfg)))
      then failwith "writing the corpus failed";
      Measure.now () -. t0)

(* One warm-up run, then runs until [seconds] have passed (at least 3). *)
let timed_runs ~mtc tally cfg ~seconds =
  let deadline = Measure.now () +. seconds in
  ignore (clean_check ~mtc tally cfg);
  let rec go acc n =
    if n >= 3 && Measure.now () >= deadline then List.rev acc
    else go (clean_check ~mtc tally cfg :: acc) (n + 1)
  in
  go [] 0

(* [flags] is an `mtc check` command line without its file. *)
let faulty_check ~mtc tally ~format ~flags h =
  let file = match format with Inputs.Bin -> "faulty.bin" | Inputs.Text -> "faulty.hist" in
  Inputs.save ~format file h;
  let r = run_check ~mtc (flags @ [ file ]) in
  Measure.expect tally (r.usage.Proc.code = 1)
    "mtc check must flag the faulty history: exit %d, want 1" r.usage.Proc.code

let end_to_end ~setup_s cfg runs =
  let txns = float_of_int cfg.corpus.Inputs.txns in
  let per f = List.map f runs in
  Measure.
    [
      of_samples "setup_s" "s" setup_s;
      of_samples "txns_per_s" "txn/s" (per (fun r -> txns /. r.wall_s));
      of_samples "cpu_s" "s" (per (fun r -> r.usage.Proc.user_s +. r.usage.Proc.sys_s));
      of_samples "verdict_ms" "ms" (per (fun r -> r.wall_s *. 1000.0));
    ]

(* Reported, not gated: steady here, but the server's peak RSS on the
   feed workloads is not, and end-to-end metrics are common to all. *)
let peak_rss runs =
  Measure.of_samples "program.peak_rss_mb" "MB"
    (List.map (fun (r : run) -> float_of_int r.usage.Proc.maxrss_kb /. 1024.0) runs)

(* ------------------------------------------------------------------ *)
(* Traced replay *)

(* One replay: the public calls Checker.check_report makes, in its
   order, each timed from here.  [stages] maps a layer to (seconds,
   bytes allocated on this domain). *)
type replay = {
  stages : (string * (float * float)) list;
  wall_s : float;  (** load through the last stage *)
  edges : int;  (** dependency-graph edges *)
  verdict : Checker.outcome option;
      (** [None]: passed every stage run here; SI's composition and its
          cycle search have no public entry point *)
}

let replay ?pool cfg =
  let stages = ref [] in
  let stage name f =
    let a0 = Gc.allocated_bytes () in
    let t0 = Measure.now () in
    let r = f () in
    stages := (name, (Measure.now () -. t0, Gc.allocated_bytes () -. a0)) :: !stages;
    r
  in
  let edges = ref 0 in
  let malformed e = Some (Checker.Fail (Checker.Malformed e)) in
  let graph ?ts idx =
    let deps () =
      match stage "deps.build" (fun () -> Deps.build ?pool ?ts ~rt:Deps.No_rt idx) with
      | Error e -> Error (malformed (Format.asprintf "%a" Deps.pp_error e))
      | Ok d ->
          edges := Csr.num_edges (Deps.freeze d);
          Ok d
    in
    match cfg.level with
    | Checker.SER -> (
        match deps () with
        | Error v -> v
        | Ok d -> (
            match stage "cycle.find" (fun () -> Cycle.find_csr (Deps.freeze d)) with
            | None -> Some Checker.Pass
            | Some c -> Some (Checker.Fail (Checker.Cyclic (Deps.to_txn_cycle d c)))))
    | Checker.SI -> (
        match stage "divergence.find" (fun () -> Divergence.find ?pool idx) with
        | Some i -> Some (Checker.Fail (Checker.Diverged i))
        | None -> ( match deps () with Error v -> v | Ok _ -> None))
    | Checker.SSER -> invalid_arg "mtcbench: no SSER workload"
  in
  let t0 = Measure.now () in
  let h =
    match stage "codec.load" (fun () -> Codec.load ?pool (corpus_file cfg)) with
    | Ok h -> h
    | Error e -> failwith ("cannot load the corpus: " ^ e)
  in
  let verdict =
    match cfg.ts with
    | Ts.Ignore -> (
        match stage "history.unique" (fun () -> History.unique_values ?pool h) with
        | Error m -> malformed m
        | Ok () -> (
            let idx = stage "index.build" (fun () -> Index.build ?pool h) in
            match stage "int_check" (fun () -> Int_check.check ?pool idx) with
            | Error v -> Some (Checker.Fail (Checker.Intra v))
            | Ok () -> graph idx))
    | (Ts.Trust | Ts.Verify) as mode -> (
        let idx = stage "index.build" (fun () -> Index.build_deferred h) in
        match stage "ts.build" (fun () -> Ts.build ?pool ~mode idx) with
        | Error m -> malformed m
        | Ok ts -> (
            match stage "int_check" (fun () -> Int_check.check_ts ?pool ts) with
            | Error v -> Some (Checker.Fail (Checker.Intra v))
            | Ok () -> graph ~ts idx))
  in
  ({ stages = !stages; wall_s = Measure.now () -. t0; edges = !edges; verdict }, h)

(* Checker.check_report on the same history with the program's own spans
   on: its outcome is the reference verdict, and its check/compose and
   check/cycle spans time the stages the replay cannot call. *)
let reference ?pool cfg h =
  Obs.Trace.clear ();
  Obs.Trace.enable ();
  let outcome =
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        fst (Checker.check_report ?pool ~ts:cfg.ts cfg.level h))
  in
  let span name =
    List.fold_left
      (fun acc e -> if e.Obs.Trace.ev_name = name then acc + e.Obs.Trace.ev_dur else acc)
      0 (Obs.Trace.events ())
  in
  (outcome, float_of_int (span "check/compose") /. 1e9, float_of_int (span "check/cycle") /. 1e9)

let render o = Format.asprintf "%a" Checker.pp_outcome o

let with_jobs jobs f =
  if jobs > 1 then Pool.with_pool ~size:jobs (fun p -> f (Some p)) else f None

(* Per-layer metrics: medians over [reps] replays.  The untraced wall
   the overhead compares against is the `mtc check` child's. *)
let per_layer ~mtc tally cfg ~reps =
  let untraced = timed_runs ~mtc tally cfg ~seconds:0.0 in
  let untraced_wall = Measure.median (List.map (fun (r : run) -> r.wall_s) untraced) in
  let reps =
    with_jobs cfg.jobs @@ fun pool ->
    List.init reps (fun _ ->
        Gc.full_major ();
        let r, h = replay ?pool cfg in
        Gc.full_major ();
        let outcome, compose_s, cycle_s = reference ?pool cfg h in
        (match r.verdict with
        | Some v ->
            Measure.expect tally (render v = render outcome)
              "replayed verdict %s differs from Checker.check's %s" (render v)
              (render outcome)
        | None ->
            Measure.expect tally
              (match outcome with
              | Checker.Pass | Checker.Fail (Checker.Cyclic _) -> true
              | Checker.Fail _ -> false)
              "replay passed every stage but Checker.check reports %s" (render outcome));
        (* SI's last two stages come from the reference's spans *)
        if cfg.level = Checker.SI then
          {
            r with
            stages = r.stages @ [ ("checker.compose", (compose_s, 0.0)); ("cycle.find", (cycle_s, 0.0)) ];
            wall_s = r.wall_s +. compose_s +. cycle_s;
          }
        else r)
  in
  let layer name f =
    Measure.median
      (List.map (fun r -> match List.assoc_opt name r.stages with Some st -> f st | None -> 0.0) reps)
  in
  let ms name = Measure.single (name ^ "_ms") "ms" (layer name (fun (s, _) -> s *. 1000.0)) in
  let alloc name = Measure.single (name ^ ".alloc_mb") "MB" (layer name (fun (_, b) -> b /. 1048576.0)) in
  let traced_wall = Measure.median (List.map (fun r -> r.wall_s) reps) in
  let coverage =
    Measure.median
      (List.map
         (fun r -> 100.0 *. List.fold_left (fun acc (_, (s, _)) -> acc +. s) 0.0 r.stages /. r.wall_s)
         reps)
  in
  let txns = float_of_int cfg.corpus.Inputs.txns in
  Measure.
    [
      ms "codec.load";
      ms "history.unique";
      ms "index.build";
      ms "ts.build";
      single "int_check.ms" "ms" (layer "int_check" (fun (s, _) -> s *. 1000.0));
      ms "divergence.find";
      ms "deps.build";
      single "deps.edges_per_txn" "edges/txn"
        (Measure.median (List.map (fun r -> float_of_int r.edges /. txns) reps));
      ms "checker.compose";
      ms "cycle.find";
      alloc "codec.load";
      alloc "history.unique";
      alloc "index.build";
      alloc "deps.build";
      single "trace.coverage_pct" "%" coverage;
      single "trace.overhead_pct" "%" (100.0 *. (traced_wall -. untraced_wall) /. untraced_wall);
      peak_rss untraced;
    ]
