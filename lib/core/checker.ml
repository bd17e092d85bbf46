type level = SSER | SER | SI

let level_name = function SSER -> "SSER" | SER -> "SER" | SI -> "SI"

let level_of_string s =
  match String.uppercase_ascii s with
  | "SSER" -> Some SSER
  | "SER" -> Some SER
  | "SI" -> Some SI
  | _ -> None

type violation =
  | Intra of Int_check.violation
  | Diverged of Divergence.instance
  | Cyclic of (Txn.id * Deps.dep * Txn.id) list
  | Malformed of string

type outcome = Pass | Fail of violation

let pp_violation ppf = function
  | Intra v -> Int_check.pp_violation ppf v
  | Diverged i -> Divergence.pp_instance ppf i
  | Cyclic cycle ->
      Format.fprintf ppf "@[<h>cycle:";
      List.iter
        (fun (a, dep, b) ->
          Format.fprintf ppf " T%d -%a-> T%d;" a Deps.pp_dep dep b)
        cycle;
      Format.fprintf ppf "@]"
  | Malformed msg -> Format.fprintf ppf "malformed history: %s" msg

let pp_outcome ppf = function
  | Pass -> Format.pp_print_string ppf "PASS"
  | Fail v -> Format.fprintf ppf "FAIL (%a)" pp_violation v

let passes = function Pass -> true | Fail _ -> false

(* The SI composition ((SO ∪ WR ∪ WW) ; RW?): an edge per dependency edge,
   plus one per dependency edge extended by a following anti-dependency.
   The middle vertex is kept in the label so cycles expand back to
   dependency-level counterexamples.  Built straight into a CSR: count
   the out-degree of every composed vertex (one slot per dependency edge
   plus one per RW edge leaving its target), prefix-sum, then fill the
   blocks in a second pass over the frozen dependency CSR. *)
type si_label =
  | Dep of Deps.dep
  | Comp of Deps.dep * int * Op.key  (* dep into mid, then RW(key) out *)

let si_compose_csr ?pool (d : Deps.t) =
  let c = Deps.freeze d in
  let n = Csr.n c in
  (* Every per-vertex pass writes only its own slot (or its own cursor
     block in the fill), so the three O(V + E) passes run on vertex
     slices; only the O(V) prefix sum stays serial.  The result does not
     depend on the slicing: every write is index-addressed. *)
  let rw_deg = Array.make n 0 in
  ignore
    (Pool.map_slices pool ~n (fun lo hi ->
         for v = lo to hi - 1 do
           for e = c.Csr.offsets.(v) to c.Csr.offsets.(v + 1) - 1 do
             match c.Csr.labels.(e) with
             | Deps.RW _ -> rw_deg.(v) <- rw_deg.(v) + 1
             | _ -> ()
           done
         done));
  let offsets = Array.make (n + 1) 0 in
  ignore
    (Pool.map_slices pool ~n (fun lo hi ->
         for u = lo to hi - 1 do
           for e = c.Csr.offsets.(u) to c.Csr.offsets.(u + 1) - 1 do
             match c.Csr.labels.(e) with
             | Deps.SO | Deps.WR _ | Deps.WW _ ->
                 offsets.(u + 1) <-
                   offsets.(u + 1) + 1 + rw_deg.(c.Csr.targets.(e))
             | Deps.RT | Deps.RW _ | Deps.Rt_chain -> ()
           done
         done));
  for u = 1 to n do
    offsets.(u) <- offsets.(u) + offsets.(u - 1)
  done;
  let m' = offsets.(n) in
  let targets = Array.make m' 0 in
  let labels = if m' = 0 then [||] else Array.make m' (Dep Deps.SO) in
  ignore
    (Pool.map_slices pool ~n (fun lo hi ->
         for u = lo to hi - 1 do
           let cursor = ref offsets.(u) in
           for e = c.Csr.offsets.(u) to c.Csr.offsets.(u + 1) - 1 do
             match c.Csr.labels.(e) with
             | (Deps.SO | Deps.WR _ | Deps.WW _) as lab ->
                 let v = c.Csr.targets.(e) in
                 let i = !cursor in
                 targets.(i) <- v;
                 labels.(i) <- Dep lab;
                 cursor := i + 1;
                 for e' = c.Csr.offsets.(v) to c.Csr.offsets.(v + 1) - 1 do
                   match c.Csr.labels.(e') with
                   | Deps.RW k ->
                       let i = !cursor in
                       targets.(i) <- c.Csr.targets.(e');
                       labels.(i) <- Comp (lab, v, k);
                       cursor := i + 1
                   | _ -> ()
                 done
             | Deps.RT | Deps.RW _ | Deps.Rt_chain -> ()
           done
         done));
  Csr.make ~offsets ~targets ~labels

let expand_si_cycle cycle =
  List.concat_map
    (fun (u, lab, w) ->
      match lab with
      | Dep dep -> [ (u, dep, w) ]
      | Comp (dep, mid, k) -> [ (u, dep, mid); (mid, Deps.RW k, w) ])
    cycle

let sp_unique = Obs.Trace.intern "check/unique"
let sp_index = Obs.Trace.intern "infer/index"
let sp_intra = Obs.Trace.intern "check/intra"
let sp_divergence = Obs.Trace.intern "check/divergence"
let sp_compose = Obs.Trace.intern "check/compose"
let sp_cycle = Obs.Trace.intern "check/cycle"

(* The graph phase shared by all timestamp modes: dependency build (with
   the optional timestamp fast path), level-specific composition, cycle
   search.  Runs after the INT screen passed. *)
let graph_phase ~rt_mode ~skew ?pool ?ts level idx =
  let acyclic_or_fail d =
    match
      Obs.Trace.with_span sp_cycle (fun () -> Cycle.find_csr (Deps.freeze d))
    with
    | None -> Pass
    | Some cycle -> Fail (Cyclic (Deps.to_txn_cycle d cycle))
  in
  match level with
  | SER -> (
      match Deps.build ?pool ?ts ~rt:Deps.No_rt idx with
      | Error e -> Fail (Malformed (Format.asprintf "%a" Deps.pp_error e))
      | Ok d -> acyclic_or_fail d)
  | SSER -> (
      match Deps.build ~skew ?pool ?ts ~rt:rt_mode idx with
      | Error e -> Fail (Malformed (Format.asprintf "%a" Deps.pp_error e))
      | Ok d -> acyclic_or_fail d)
  | SI -> (
      match
        Obs.Trace.with_span sp_divergence (fun () -> Divergence.find ?pool idx)
      with
      | Some inst -> Fail (Diverged inst)
      | None -> (
          match Deps.build ?pool ?ts ~rt:Deps.No_rt idx with
          | Error e -> Fail (Malformed (Format.asprintf "%a" Deps.pp_error e))
          | Ok d -> (
              let composed =
                Obs.Trace.with_span sp_compose (fun () ->
                    si_compose_csr ?pool d)
              in
              match
                Obs.Trace.with_span sp_cycle (fun () -> Cycle.find_csr composed)
              with
              | None -> Pass
              | Some cycle ->
                  Fail (Cyclic (Deps.to_txn_cycle d (expand_si_cycle cycle))))))

let check_report ?(rt_mode = Deps.Rt_sweep) ?(skew = 0) ?pool ?(ts = Ts.Ignore)
    level h =
  match ts with
  | Ts.Ignore -> (
      match
        Obs.Trace.with_span sp_unique (fun () -> History.unique_values ?pool h)
      with
      | Error msg -> (Fail (Malformed msg), None)
      | Ok () -> (
          let idx =
            Obs.Trace.with_span sp_index (fun () -> Index.build ?pool h)
          in
          match
            Obs.Trace.with_span sp_intra (fun () -> Int_check.check ?pool idx)
          with
          | Error v -> (Fail (Intra v), None)
          | Ok () -> (graph_phase ~rt_mode ~skew ?pool level idx, None)))
  | (Ts.Trust | Ts.Verify) as mode -> (
      (* Vbox fast path: no eager write table — the timestamp chains
         carry the version order.  [Verify]'s chain build runs
         [History.unique_values] first, and certification in the INT
         screen falls back per key to value inference, so the outcome —
         rendering included — matches [Ignore] exactly.  [Trust] skips
         the screen. *)
      let idx =
        Obs.Trace.with_span sp_index (fun () -> Index.build_deferred h)
      in
      match Ts.build ?pool ~mode idx with
      | Error msg -> (Fail (Malformed msg), None)
      | Ok tsi -> (
          match
            Obs.Trace.with_span sp_intra (fun () ->
                Int_check.check_ts ?pool tsi)
          with
          | Error v -> (Fail (Intra v), Some tsi)
          | Ok () ->
              ( graph_phase ~rt_mode ~skew ?pool ~ts:tsi level idx,
                Some tsi )))

let check ?rt_mode ?skew ?pool ?ts level h =
  fst (check_report ?rt_mode ?skew ?pool ?ts level h)

let check_sser ?rt_mode ?skew h = check ?rt_mode ?skew SSER h
let check_ser h = check SER h
let check_si h = check SI h

(* The initial transaction is not a mini-transaction issued by any client:
   positions count real MTs, so id 0 is skipped unless it is all there is. *)
let min_position ids =
  match List.filter (fun t -> t > 0) ids with
  | [] -> if ids = [] then None else Some 0
  | real -> Some (List.fold_left Stdlib.min Stdlib.max_int real)

let ce_position = function
  | Intra v -> Some v.Int_check.txn
  | Diverged i ->
      let r1, _ = i.Divergence.reader1 and r2, _ = i.Divergence.reader2 in
      min_position [ i.Divergence.writer; r1; r2 ]
  | Cyclic cycle ->
      min_position (List.concat_map (fun (a, _, b) -> [ a; b ]) cycle)
  | Malformed _ -> None
