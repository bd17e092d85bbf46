(* Shared helpers for the benchmark harness: history generation through
   the engine, timing, paper-style table printing, parallel sweeps, and
   machine-readable (JSON) result capture. *)

(* --- global harness switches (set by main.ml from the command line) --- *)

(* Worker pool for parallel config sweeps (main.exe -- -j N). *)
let pool : Pool.t option ref = ref None

(* Smoke mode (main.exe -- --smoke): one tiny config per experiment, so
   `dune build @bench-smoke` can gate PRs in seconds. *)
let smoke = ref false

let jobs () = match !pool with Some p -> Pool.size p | None -> 1

(* Detection gates: an experiment that fails to reproduce a finding
   records it here, and main.exe exits non-zero once every table is
   written.  Rows computed under [par_map] may record from pool
   domains, hence the lock. *)
let misses : string list ref = ref []
let misses_lock = Mutex.create ()

let miss fmt =
  Printf.ksprintf
    (fun s -> Mutex.protect misses_lock (fun () -> misses := s :: !misses))
    fmt

(* Map over a sweep's config points, concurrently when a pool is set.
   Rows are pure (printing happens after the map), so this is safe for
   every sweep built as [print_table (par_map row configs)]. *)
let par_map f xs =
  match !pool with
  | Some p when Pool.size p > 1 -> Pool.map_list p f xs
  | _ -> List.map f xs

(* Sweep shrinkers for --smoke: keep the first config point only, and
   scale raw transaction counts down. *)
let sweep l = if !smoke then [ List.hd l ] else l
let scale n = if !smoke then Stdlib.max 50 (n / 20) else n

(* --- table printing + capture --- *)

type recorded_table = {
  rt_section : string;
  rt_header : string list;
  rt_rows : string list list;
}

let recorded : recorded_table list ref = ref []
let current_section = ref ""

let begin_experiment () =
  recorded := [];
  current_section := ""

let section title =
  current_section := "";
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title =
  current_section := title;
  Printf.printf "\n--- %s ---\n" title

(* Aligned table printing. *)
let print_table ~header rows =
  recorded :=
    { rt_section = !current_section; rt_header = header; rt_rows = rows }
    :: !recorded;
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun w row -> Stdlib.max w (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell -> Printf.printf "%-*s  " (List.nth widths c) cell)
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

(* One JSON object per experiment (JSONL): every table the experiment
   printed, cells as strings, so future PRs can diff BENCH_*.json instead
   of scraping stdout. *)
let experiment_json ~name ~elapsed_s =
  let buf = Buffer.create 1024 in
  let str s =
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let list f l =
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        f x)
      l;
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf "{\"experiment\":";
  str name;
  Buffer.add_string buf (Printf.sprintf ",\"elapsed_s\":%.6f" elapsed_s);
  Buffer.add_string buf (Printf.sprintf ",\"jobs\":%d" (jobs ()));
  Buffer.add_string buf (Printf.sprintf ",\"smoke\":%b" !smoke);
  Buffer.add_string buf ",\"tables\":";
  list
    (fun t ->
      Buffer.add_string buf "{\"section\":";
      str t.rt_section;
      Buffer.add_string buf ",\"header\":";
      list str t.rt_header;
      Buffer.add_string buf ",\"rows\":";
      list (list str) t.rt_rows;
      Buffer.add_char buf '}')
    (List.rev !recorded);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* --- formatting helpers --- *)

let ms t = Printf.sprintf "%.2f" (1000.0 *. t)
let mb bytes = Printf.sprintf "%.1f" (bytes /. 1_048_576.0)
let pct x = Printf.sprintf "%.1f" (100.0 *. x)

(* Median-of-k timing of a single function. *)
let time_median ?(repeat = 3) f =
  let samples = Stats.time_repeat ~warmup:1 ~repeat f in
  Stats.median samples

(* Generate an MT history through the engine at a given level. *)
let mt_history ?(level = Isolation.Serializable) ?(dist = Distribution.Uniform)
    ?(sessions = 10) ?(keys = 500) ~txns ~seed () =
  let spec =
    Mt_gen.generate
      { Mt_gen.num_sessions = sessions; num_txns = txns; num_keys = keys; dist; seed }
  in
  let db = { Db.level; fault = Fault.No_fault; num_keys = keys; seed } in
  Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ()

let gt_history ?(level = Isolation.Serializable) ?(dist = Distribution.Uniform)
    ?(sessions = 10) ?(keys = 500) ?(ops = 10) ~txns ~seed () =
  let spec =
    Gt_gen.generate
      { Gt_gen.num_sessions = sessions; num_txns = txns; num_keys = keys;
        ops_per_txn = ops; dist; seed }
  in
  let db = { Db.level; fault = Fault.No_fault; num_keys = keys; seed } in
  Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ()

(* Allocation (bytes) during [f] — the memory metric of Figures 10d-f/17.
   The heap is normalized first: GC state inherited from earlier
   experiments (e.g. Porcupine's state-space search in fig9) otherwise
   inflates the counter by up to ~1MB, making the promoted numbers
   depend on experiment order instead of on [f]. *)
let alloc_during f =
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. a0)

let verdict_str b = if b then "pass" else "VIOLATION"

(* Verdict gate: the last cell of every row must read [want] (a healthy
   engine's history must pass, a planted violation must be caught). *)
let expect_verdicts what want rows =
  List.iter
    (fun row ->
      let got = List.nth row (List.length row - 1) in
      if got <> want then
        miss "%s: %s reads %s, want %s" what (List.hd row) got want)
    rows

(* Median seconds of MTC and of the polygraph checker on [h] at [level],
   and the latter's stats.  [h] comes from a healthy engine, so both
   must accept it, or [what] is a gate miss. *)
let verify_pair what level h =
  let mtc_out = ref None and pg_out = ref None in
  let mtc = time_median (fun () -> mtc_out := Some (Checker.check level h)) in
  let pg =
    time_median (fun () -> pg_out := Some (Polygraph.check ~level h))
  in
  let mtc_ok = Checker.passes (Option.get !mtc_out) in
  let res = Option.get !pg_out in
  if not (mtc_ok && res.Polygraph.ok) then
    miss "%s: MTC reads %s, the polygraph checker reads %s, want pass" what
      (verdict_str mtc_ok) (verdict_str res.Polygraph.ok);
  (mtc, pg, res.Polygraph.stats)
