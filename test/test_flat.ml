(* Tests for the allocation-light inference pipeline: the int-packed
   Flat_index (raw map + writer tiers, including the spill path for
   unpackable pairs), Int_vec, and the dependency builder checked
   against a brute-force reference written from the definitions. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

(* --- Flat_index: raw open-addressing map --- *)

let test_map_basic () =
  let m = Flat_index.create () in
  checki "absent is -1" (-1) (Flat_index.get m 42);
  checkb "absent not mem" false (Flat_index.mem m 42);
  Flat_index.set m 42 7;
  checki "present" 7 (Flat_index.get m 42);
  checkb "present mem" true (Flat_index.mem m 42);
  Flat_index.set m 42 9;
  checki "replaced" 9 (Flat_index.get m 42);
  checki "size counts keys once" 1 (Flat_index.length m)

let test_map_growth () =
  let m = Flat_index.create ~capacity:2 () in
  for k = 0 to 9_999 do
    Flat_index.set m (k * 7) (k + 1)
  done;
  checki "all inserted" 10_000 (Flat_index.length m);
  let ok = ref true in
  for k = 0 to 9_999 do
    if Flat_index.get m (k * 7) <> k + 1 then ok := false
  done;
  checkb "all retrievable after growth" true !ok;
  checki "probe miss after growth" (-1) (Flat_index.get m 3)

let test_map_negative_value_rejected () =
  let m = Flat_index.create () in
  checkb "set -1 rejected" true
    (try
       Flat_index.set m 0 (-1);
       false
     with Invalid_argument _ -> true)

let test_map_adversarial_keys () =
  (* Keys colliding in the low bits stress linear probing. *)
  let m = Flat_index.create ~capacity:4 () in
  for i = 0 to 199 do
    Flat_index.set m (i * 1024) i
  done;
  let ok = ref true in
  for i = 0 to 199 do
    if Flat_index.get m (i * 1024) <> i then ok := false
  done;
  checkb "colliding keys survive" true !ok

(* --- Flat_index.Writers: tiers and the unpackable spill --- *)

let test_writers_tiers () =
  let w = Flat_index.Writers.create ~num_keys:4 ~expected:8 in
  Flat_index.Writers.set_aborted w 1 10 3;
  checkb "aborted tier" true
    (Flat_index.Writers.resolve w 1 10 = Flat_index.Writers.Aborted 3);
  Flat_index.Writers.set_intermediate w 1 10 2;
  checkb "intermediate shadows aborted" true
    (Flat_index.Writers.resolve w 1 10 = Flat_index.Writers.Intermediate 2);
  Flat_index.Writers.set_final w 1 10 1;
  checkb "final shadows intermediate" true
    (Flat_index.Writers.resolve w 1 10 = Flat_index.Writers.Final 1);
  checkb "other value nobody" true
    (Flat_index.Writers.resolve w 1 11 = Flat_index.Writers.Nobody);
  checkb "other key nobody" true
    (Flat_index.Writers.resolve w 2 10 = Flat_index.Writers.Nobody)

let test_writers_spill () =
  (* Values beyond the pack guard (v * num_keys would overflow) and
     negative values take the tuple-keyed spill table; resolution must be
     identical. *)
  let w = Flat_index.Writers.create ~num_keys:1000 ~expected:8 in
  let huge = max_int - 5 in
  Flat_index.Writers.set_final w 3 huge 7;
  Flat_index.Writers.set_intermediate w 4 (-2) 8;
  Flat_index.Writers.set_aborted w 5 huge 9;
  checkb "huge value resolves final" true
    (Flat_index.Writers.resolve w 3 huge = Flat_index.Writers.Final 7);
  checkb "negative value resolves intermediate" true
    (Flat_index.Writers.resolve w 4 (-2) = Flat_index.Writers.Intermediate 8);
  checkb "huge aborted resolves" true
    (Flat_index.Writers.resolve w 5 huge = Flat_index.Writers.Aborted 9);
  checkb "near-miss key nobody" true
    (Flat_index.Writers.resolve w 6 huge = Flat_index.Writers.Nobody);
  (* Packed and spilled entries coexist. *)
  Flat_index.Writers.set_final w 3 42 11;
  checkb "packed entry next to spill" true
    (Flat_index.Writers.resolve w 3 42 = Flat_index.Writers.Final 11)

(* --- Int_vec --- *)

let test_int_vec () =
  let v = Int_vec.create 2 in
  for i = 0 to 999 do
    Int_vec.push v (i * 3)
  done;
  checki "length" 1000 (Int_vec.length v);
  checki "get" 297 (Int_vec.get v 99);
  let data = Int_vec.data v in
  checkb "data is the live prefix" true
    (Array.length data >= 1000 && data.(999) = 2997)

(* --- engine histories shared with the other property suites --- *)

let config_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* num_keys = int_range 2 30 in
    let* num_txns = int_range 20 250 in
    let* num_sessions = int_range 1 10 in
    let* level =
      oneofl
        [ Isolation.Snapshot; Isolation.Serializable;
          Isolation.Strict_serializable ]
    in
    return (seed, num_keys, num_txns, num_sessions, level))

let print_config (seed, num_keys, num_txns, num_sessions, level) =
  Printf.sprintf "seed=%d keys=%d txns=%d sessions=%d level=%s" seed num_keys
    num_txns num_sessions (Isolation.name level)

let history_of (seed, num_keys, num_txns, num_sessions, level) =
  (* Odd seeds run a faulty engine so the properties also cover
     histories with real anomalies (cyclic graphs). *)
  let fault = if seed mod 2 = 1 then Fault.Lost_update 0.15 else Fault.No_fault in
  let spec =
    Mt_gen.generate
      { Mt_gen.num_sessions; num_txns; num_keys; dist = Distribution.Uniform;
        seed }
  in
  let db = { Db.level; fault; num_keys; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

let outcome_kind = function
  | Checker.Pass -> 0
  | Checker.Fail (Checker.Intra _) -> 1
  | Checker.Fail (Checker.Diverged _) -> 2
  | Checker.Fail (Checker.Cyclic _) -> 3
  | Checker.Fail (Checker.Malformed _) -> 4

(* --- reference dependency graph, straight from the definitions --- *)

(* Brute-force BUILDDEPENDENCY over transaction ids, written from paper
   Algorithm 1 with no shared code: it reads only the history's
   transaction records and op arrays, and rescans the whole history for
   every relation.  A committed transaction's final write of x is its
   last Write of x; its external read of x is its first op on x when
   that op is a Read.  The first unresolved external read in (id, op
   index) order is the error, as in [Deps.build]. *)

let ref_committed (h : History.t) =
  List.filter
    (fun (t : Txn.t) -> t.status = Txn.Committed)
    (Array.to_list h.txns)

let ref_final_write (t : Txn.t) k =
  Array.fold_left
    (fun acc op ->
      match op with Op.Write (k', v) when k' = k -> Some v | _ -> acc)
    None t.ops

let ref_external_reads (t : Txn.t) =
  let ops = Array.to_list t.ops in
  let on k = function Op.Read (k', _) | Op.Write (k', _) -> k' = k in
  List.concat
    (List.mapi
       (fun i op ->
         match op with
         | Op.Read (k, v)
           when not (List.exists (on k) (List.filteri (fun j _ -> j < i) ops))
           ->
             [ (k, v) ]
         | Op.Read _ | Op.Write _ -> [])
       ops)

(* RT pairs of the naive encoding: every ordered pair of distinct
   committed transactions with T.commit_ts < S.start_ts. *)
let ref_rt_pairs h =
  let c = ref_committed h in
  List.concat_map
    (fun (t : Txn.t) ->
      List.filter_map
        (fun (s : Txn.t) ->
          if t.id <> s.id && t.commit_ts < s.start_ts then Some (t.id, s.id)
          else None)
        c)
    c
  |> List.sort compare

let ref_edges ~rt h =
  let c = ref_committed h in
  (* SO: each committed transaction's nearest committed predecessor in
     its session, or the initial transaction. *)
  let so =
    List.filter_map
      (fun (s : Txn.t) ->
        if s.id = History.init_id then None
        else
          let pred =
            List.fold_left
              (fun acc (t : Txn.t) ->
                if t.session = s.session && t.id < s.id then max acc t.id
                else acc)
              History.init_id c
          in
          Some (pred, Deps.SO, s.id))
      c
  in
  (* WR as (T, x, S): T is a committed transaction other than S whose
     final write of x is S's external read of x. *)
  let unresolved = ref None in
  let wr =
    List.concat_map
      (fun (s : Txn.t) ->
        List.concat_map
          (fun (k, v) ->
            let writers =
              List.filter
                (fun (t : Txn.t) ->
                  t.id <> s.id && ref_final_write t k = Some v)
                c
            in
            if writers = [] && !unresolved = None then
              unresolved :=
                Some (Deps.Unresolved_read { txn = s.id; key = k; value = v });
            List.map (fun (t : Txn.t) -> (t.id, k, s)) writers)
          (ref_external_reads s))
      c
  in
  match !unresolved with
  | Some e -> Error e
  | None ->
      (* WW: the WR edges whose reader also writes x.  RW: S -> U when
         T -WR(x)-> S and T -WW(x)-> U, S <> U. *)
      let ww = List.filter (fun (_, k, s) -> ref_final_write s k <> None) wr in
      let rw =
        List.concat_map
          (fun (t, k, (s : Txn.t)) ->
            List.filter_map
              (fun (t', k', (u : Txn.t)) ->
                if t = t' && k = k' && s.id <> u.id then
                  Some (s.id, Deps.RW k, u.id)
                else None)
              ww)
          wr
      in
      let rt_edges =
        match rt with
        | Deps.Rt_naive ->
            List.map (fun (a, b) -> (a, Deps.RT, b)) (ref_rt_pairs h)
        | Deps.No_rt | Deps.Rt_sweep -> []
      in
      let label lab = List.map (fun (t, k, (s : Txn.t)) -> (t, lab k, s.id)) in
      Ok
        (List.sort compare
           (so
           @ label (fun k -> Deps.WR k) wr
           @ label (fun k -> Deps.WW k) ww
           @ rw @ rt_edges))

(* The engines never leave a read unattributable, so property 1 also
   runs each history with the reads of every 13th transaction rewritten
   to a value nobody writes; several stripes then hold an unresolved
   read, and the first in (id, op index) order must be the error. *)
let with_thin_air_reads seed (h : History.t) =
  let rewrite (t : Txn.t) =
    if t.id mod 13 <> seed mod 13 then t
    else
      let thin_air = function
        | Op.Read (k, _) -> Op.Read (k, -t.id)
        | Op.Write _ as op -> op
      in
      { t with ops = Array.map thin_air t.ops }
  in
  History.make ~num_keys:h.num_keys ~num_sessions:h.num_sessions
    (List.tl (List.map rewrite (Array.to_list h.txns)))

(* The subject: [Deps.build]'s CSR mapped to transaction ids. *)
let deps_edges ~rt h =
  let idx = Index.build h in
  match Deps.build ~rt idx with
  | Error e -> Error e
  | Ok d ->
      let c = Deps.freeze d in
      let id v = (Index.txn_of_vertex idx v).Txn.id in
      let acc = ref [] in
      for u = 0 to Csr.n c - 1 do
        Csr.iter_succ c u (fun v lab -> acc := (id u, lab, id v) :: !acc)
      done;
      Ok (List.sort compare !acc)

(* Transaction pairs joined by a path whose inner vertices are all
   Rt_sweep helpers: the RT relation the sweep encodes. *)
let helper_pairs idx (d : Deps.t) =
  let c = Deps.freeze d in
  let m = d.num_txn_vertices in
  let id v = (Index.txn_of_vertex idx v).Txn.id in
  let pairs = ref [] in
  for u = 0 to m - 1 do
    let seen = Array.make (Csr.n c) false in
    let rec walk x =
      if not seen.(x) then begin
        seen.(x) <- true;
        Csr.iter_succ c x (fun w _ ->
            if w >= m then walk w else pairs := (id u, id w) :: !pairs)
      end
    in
    Csr.iter_succ c u (fun w _ -> if w >= m then walk w)
  done;
  List.sort_uniq compare !pairs

let prop_edges_match_reference =
  QCheck2.Test.make ~name:"deps edges == definitional reference" ~count:60
    ~print:print_config config_gen (fun ((seed, _, _, _, _) as cfg) ->
      let h = history_of cfg in
      List.for_all
        (fun h ->
          List.for_all
            (fun rt -> deps_edges ~rt h = ref_edges ~rt h)
            [ Deps.No_rt; Deps.Rt_naive ])
        [ h; with_thin_air_reads seed h ])

let prop_sweep_encodes_reference_rt =
  QCheck2.Test.make ~name:"rt_sweep paths == reference RT pairs" ~count:60
    ~print:print_config config_gen (fun cfg ->
      let h = history_of cfg in
      let idx = Index.build h in
      match Deps.build ~rt:Deps.Rt_sweep idx with
      | Error e -> ref_edges ~rt:Deps.No_rt h = Error e
      | Ok d -> helper_pairs idx d = ref_rt_pairs h)

(* --- allocation bound --- *)

(* Index + build + freeze of a fixed history.  The seed's list-based
   builder, the former reference for this gate, allocated 5,174,284 B
   here and the CSR builder 2,106,408 B (OCaml 5.1.1, stable over three
   runs); the absolute bound is half the former, as strict as the old
   relative one. *)
let test_build_alloc_bounded () =
  let spec =
    Mt_gen.generate
      { Mt_gen.default with num_txns = 2000; num_keys = 300; seed = 77 }
  in
  let db =
    { Db.level = Isolation.Serializable; fault = Fault.No_fault;
      num_keys = 300; seed = 77 }
  in
  let h = (Scheduler.run ~db ~spec ()).Scheduler.history in
  let build () =
    let idx = Index.build h in
    match Deps.build ~rt:Deps.No_rt idx with
    | Ok d -> ignore (Sys.opaque_identity (Deps.freeze d))
    | Error _ -> Alcotest.fail "unexpected unresolved read"
  in
  (* Minimum of a few runs: Gc.allocated_bytes can absorb counters from
     domains terminated by earlier suites, inflating a single delta. *)
  build () (* warm-up *);
  let best = ref infinity in
  for _ = 1 to 3 do
    let a0 = Gc.allocated_bytes () in
    build ();
    let d = Gc.allocated_bytes () -. a0 in
    if d < !best then best := d
  done;
  if !best > 2_587_142.0 then
    Alcotest.failf "deps build allocated %.0f bytes, expected <= 2587142"
      !best

let suite =
  [
    ("flat map: basic", `Quick, test_map_basic);
    ("flat map: growth", `Quick, test_map_growth);
    ("flat map: negative value rejected", `Quick,
     test_map_negative_value_rejected);
    ("flat map: adversarial keys", `Quick, test_map_adversarial_keys);
    ("writers: tier shadowing", `Quick, test_writers_tiers);
    ("writers: unpackable spill", `Quick, test_writers_spill);
    ("int_vec: push/get/data", `Quick, test_int_vec);
    qtest prop_edges_match_reference;
    qtest prop_sweep_encodes_reference_rt;
    ("deps: direct build allocates <= half of digraph", `Quick,
     test_build_alloc_bounded);
  ]
