(* Tests for mtc.graph: Digraph, Cycle, Scc, Topo, Reach, Pearce_kelly. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let of_edges n edges =
  let g = Digraph.create n in
  List.iter (fun (u, v) -> Digraph.add_edge g u v ()) edges;
  g

(* --- Digraph --- *)

let test_digraph_basic () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1 "a";
  Digraph.add_edge g 0 2 "b";
  checki "n" 3 (Digraph.n g);
  checki "edges" 2 (Digraph.num_edges g);
  checkb "mem 0->1" true (Digraph.mem_edge g 0 1);
  checkb "no 1->0" false (Digraph.mem_edge g 1 0);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "succ order" [ (1, "a"); (2, "b") ] (Digraph.succ g 0)

let test_digraph_transpose () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1 "x";
  let t = Digraph.transpose g in
  checkb "reversed" true (Digraph.mem_edge t 1 0);
  checkb "original gone" false (Digraph.mem_edge t 0 1)

let test_digraph_fold () =
  let g = of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  checki "fold count" 3 (Digraph.fold_edges g (fun acc _ _ _ -> acc + 1) 0)

(* --- Cycle --- *)

let test_cycle_none_empty () =
  checkb "empty acyclic" true (Cycle.is_acyclic (of_edges 5 []))

let test_cycle_none_dag () =
  checkb "dag" true (Cycle.is_acyclic (of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]))

let test_cycle_self_loop () =
  match Cycle.find (of_edges 3 [ (1, 1) ]) with
  | Some [ (1, (), 1) ] -> ()
  | Some c -> Alcotest.failf "unexpected cycle of length %d" (List.length c)
  | None -> Alcotest.fail "self loop missed"

let valid_cycle edges cycle =
  (* consecutive edges chain and it closes *)
  let rec chain = function
    | (_, _, b) :: (((a, _, _) :: _) as rest) -> b = a && chain rest
    | [ _ ] | [] -> true
  in
  let closes =
    match (cycle, List.rev cycle) with
    | (first, _, _) :: _, (_, _, last) :: _ -> first = last
    | _ -> false
  in
  let all_edges =
    List.for_all (fun (u, _, v) -> List.mem (u, v) edges) cycle
  in
  chain cycle && closes && all_edges

let test_cycle_witness_valid () =
  let edges = [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  match Cycle.find (of_edges 4 edges) with
  | Some c -> checkb "valid witness" true (valid_cycle edges c)
  | None -> Alcotest.fail "cycle missed"

let test_cycle_long () =
  let n = 50_000 in
  let edges = List.init (n - 1) (fun i -> (i, i + 1)) @ [ (n - 1, 0) ] in
  match Cycle.find (of_edges n edges) with
  | Some c -> checki "full cycle" n (List.length c)
  | None -> Alcotest.fail "long cycle missed"

let test_cycle_deep_dag () =
  (* No stack overflow on a path of 200k vertices. *)
  let n = 200_000 in
  let edges = List.init (n - 1) (fun i -> (i, i + 1)) in
  checkb "deep dag acyclic" true (Cycle.is_acyclic (of_edges n edges))

(* --- Csr --- *)

let test_csr_roundtrip () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1 "a";
  Digraph.add_edge g 0 2 "b";
  Digraph.add_edge g 2 3 "c";
  Digraph.add_edge g 2 0 "d";
  let c = Csr.of_digraph g in
  checki "n" 4 (Csr.n c);
  checki "edges" 4 (Csr.num_edges c);
  for u = 0 to 3 do
    Alcotest.check
      (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
      (Printf.sprintf "succ %d matches" u)
      (Digraph.succ g u) (Csr.succ c u);
    checki (Printf.sprintf "out_degree %d" u)
      (List.length (Digraph.succ g u))
      (Csr.out_degree c u)
  done;
  checkb "mem 2->0" true (Csr.mem_edge c 2 0);
  checkb "no 1->2" false (Csr.mem_edge c 1 2)

let test_csr_empty () =
  let c = Csr.of_digraph (of_edges 5 []) in
  checki "n" 5 (Csr.n c);
  checki "edges" 0 (Csr.num_edges c);
  checkb "no cycle" true (Cycle.find_csr c = None)

let test_csr_iter_succ_order () =
  let g = Digraph.create 2 in
  for i = 1 to 100 do
    Digraph.add_edge g 0 (i mod 2) i
  done;
  let c = Csr.of_digraph g in
  let seen = ref [] in
  Csr.iter_succ c 0 (fun v lab -> seen := (v, lab) :: !seen);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "insertion order" (Digraph.succ g 0)
    (List.rev !seen)

let test_csr_cycle_witness () =
  let edges = [ (0, 1); (1, 2); (2, 0); (2, 3) ] in
  match Cycle.find_csr (Csr.of_digraph (of_edges 4 edges)) with
  | Some c ->
      checkb "valid witness" true (valid_cycle edges c);
      (* Identical witness to the Digraph entry point. *)
      checkb "same as find" true (Cycle.find (of_edges 4 edges) = Some c)
  | None -> Alcotest.fail "cycle missed"

let test_csr_random_agreement () =
  (* find/sort/component_ids agree between Digraph and CSR entry points
     on random graphs. *)
  let rng = Rng.create 4242 in
  for _ = 1 to 30 do
    let n = 2 + Rng.int rng 25 in
    let g = Digraph.create n in
    for _ = 1 to Rng.int rng 50 do
      Digraph.add_edge g (Rng.int rng n) (Rng.int rng n) ()
    done;
    let c = Csr.of_digraph g in
    checkb "find agrees" true (Cycle.find g = Cycle.find_csr c);
    checkb "topo agrees" true (Topo.sort g = Topo.sort_csr c);
    let ids, k = Scc.component_ids g in
    let ids', k' = Scc.component_ids_csr c in
    checki "scc count agrees" k k';
    checkb "scc ids agree" true (ids = ids')
  done

let test_csr_find_no_per_visit_alloc () =
  (* The flat DFS allocates only its O(n) scratch arrays — nothing per
     visited edge.  On a ~10-edges-per-vertex DAG the old list-based DFS
     allocated >= 24*E bytes just materializing successor lists, which
     this bound (linear in n, independent of E) rules out. *)
  let n = 20_000 in
  let g = Digraph.create n in
  let rng = Rng.create 9 in
  for u = 0 to n - 2 do
    for _ = 1 to 10 do
      let v = u + 1 + Rng.int rng (n - u - 1) in
      Digraph.add_edge g u v ()
    done
  done;
  let c = Csr.of_digraph g in
  ignore (Cycle.find_csr c) (* warm-up *);
  (* Minimum of a few runs: Gc.allocated_bytes can absorb counters from
     domains terminated by earlier suites, inflating a single delta. *)
  let bytes = ref infinity in
  for _ = 1 to 3 do
    let a0 = Gc.allocated_bytes () in
    let r = Cycle.find_csr c in
    let d = Gc.allocated_bytes () -. a0 in
    checkb "acyclic" true (r = None);
    if d < !bytes then bytes := d
  done;
  if !bytes > (8.0 *. float_of_int n *. 6.0) +. 65536.0 then
    Alcotest.failf "find_csr allocated %.0f bytes (scales with E?)" !bytes

(* --- Scc --- *)

let test_scc_count () =
  let g = of_edges 6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 3); (2, 3) ] in
  let _, k = Scc.component_ids g in
  checki "3 components" 3 k (* {0,1,2}, {3,4}, {5} *)

let test_scc_members () =
  let g = of_edges 5 [ (0, 1); (1, 0); (2, 3) ] in
  let comp, _ = Scc.component_ids g in
  checkb "0 and 1 together" true (comp.(0) = comp.(1));
  checkb "2 and 3 apart" true (comp.(2) <> comp.(3))

let test_scc_reverse_topo () =
  (* Tarjan numbers components in reverse topological order. *)
  let g = of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let comp, _ = Scc.component_ids g in
  checkb "sink numbered first" true (comp.(3) < comp.(0))

(* --- Topo --- *)

let test_topo_valid () =
  let g = of_edges 5 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ] in
  match Topo.sort g with
  | Some order ->
      let pos = Array.make 5 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      checkb "respects edges" true (Topo.is_order g pos)
  | None -> Alcotest.fail "dag has no topo order?"

let test_topo_cyclic () =
  checkb "cyclic has none" true (Topo.sort (of_edges 3 [ (0, 1); (1, 0) ]) = None)

let test_topo_all_vertices () =
  match Topo.sort (of_edges 4 [ (2, 3) ]) with
  | Some order -> checki "all vertices" 4 (List.length order)
  | None -> Alcotest.fail "expected order"

(* --- Reach --- *)

let test_reach_basic () =
  let g = of_edges 5 [ (0, 1); (1, 2); (3, 4) ] in
  checkb "0->2" true (Reach.reachable g 0 2);
  checkb "2 not-> 0" false (Reach.reachable g 2 0);
  checkb "0 not-> 4" false (Reach.reachable g 0 4);
  checkb "self" true (Reach.reachable g 3 3)

let test_closure_matches_bfs () =
  let rng = Rng.create 77 in
  for _ = 1 to 20 do
    let n = 2 + Rng.int rng 30 in
    let edges =
      List.init (Rng.int rng 60) (fun _ -> (Rng.int rng n, Rng.int rng n))
    in
    let g = of_edges n edges in
    let m = Reach.closure_matrix g in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        let expected = Reach.reachable g u v || u = v in
        if Reach.bit m.(u) v <> expected then
          Alcotest.failf "closure mismatch at %d->%d (n=%d)" u v n
      done
    done
  done

(* --- Pearce-Kelly --- *)

let test_pk_accepts_dag () =
  let pk = Pearce_kelly.create 5 in
  List.iter
    (fun (u, v) ->
      match Pearce_kelly.add_edge pk u v with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "rejected DAG edge")
    [ (3, 1); (1, 0); (0, 4); (4, 2); (3, 2) ];
  checkb "invariant" true (Pearce_kelly.check_invariant pk)

let test_pk_rejects_cycle () =
  let pk = Pearce_kelly.create 3 in
  ignore (Pearce_kelly.add_edge pk 0 1);
  ignore (Pearce_kelly.add_edge pk 1 2);
  match Pearce_kelly.add_edge pk 2 0 with
  | Error path ->
      checkb "path from 0 to 2" true
        (List.hd path = 0 && List.rev path |> List.hd = 2);
      checkb "state unchanged" true (not (Pearce_kelly.mem_edge pk 2 0))
  | Ok () -> Alcotest.fail "cycle accepted"

let test_pk_self_loop () =
  let pk = Pearce_kelly.create 2 in
  match Pearce_kelly.add_edge pk 1 1 with
  | Error [ 1 ] -> ()
  | _ -> Alcotest.fail "self loop should fail with [v]"

let test_pk_duplicate_edge () =
  let pk = Pearce_kelly.create 2 in
  ignore (Pearce_kelly.add_edge pk 0 1);
  match Pearce_kelly.add_edge pk 0 1 with
  | Ok () -> checkb "invariant" true (Pearce_kelly.check_invariant pk)
  | Error _ -> Alcotest.fail "duplicate rejected"

let test_pk_random_vs_batch () =
  (* PK must agree with Kahn on random edge streams. *)
  let rng = Rng.create 1234 in
  for _ = 1 to 50 do
    let n = 3 + Rng.int rng 20 in
    let pk = Pearce_kelly.create n in
    let g = Digraph.create n in
    let pk_alive = ref true in
    for _ = 1 to 3 * n do
      let u = Rng.int rng n and v = Rng.int rng n in
      if !pk_alive && u <> v then begin
        let before_cyclic = not (Cycle.is_acyclic g) in
        assert (not before_cyclic);
        match Pearce_kelly.add_edge pk u v with
        | Ok () ->
            Digraph.add_edge g u v ();
            if not (Cycle.is_acyclic g) then
              Alcotest.fail "PK accepted a cycle-closing edge";
            if not (Pearce_kelly.check_invariant pk) then
              Alcotest.fail "PK invariant broken"
        | Error _ ->
            (* Verify the edge really closes a cycle. *)
            Digraph.add_edge g u v ();
            if Cycle.is_acyclic g then
              Alcotest.fail "PK rejected an acceptable edge";
            pk_alive := false
      end
    done
  done

let suite =
  [
    ("digraph basics", `Quick, test_digraph_basic);
    ("digraph transpose", `Quick, test_digraph_transpose);
    ("digraph fold_edges", `Quick, test_digraph_fold);
    ("cycle: empty graph", `Quick, test_cycle_none_empty);
    ("cycle: dag", `Quick, test_cycle_none_dag);
    ("cycle: self loop", `Quick, test_cycle_self_loop);
    ("cycle: witness is valid", `Quick, test_cycle_witness_valid);
    ("cycle: 50k-cycle", `Quick, test_cycle_long);
    ("cycle: 200k-deep dag, no overflow", `Quick, test_cycle_deep_dag);
    ("csr: round-trip vs digraph", `Quick, test_csr_roundtrip);
    ("csr: empty graph", `Quick, test_csr_empty);
    ("csr: iter_succ insertion order", `Quick, test_csr_iter_succ_order);
    ("csr: cycle witness matches find", `Quick, test_csr_cycle_witness);
    ("csr: random agreement with digraph kernels", `Quick,
     test_csr_random_agreement);
    ("csr: find allocates O(n), not O(E)", `Quick,
     test_csr_find_no_per_visit_alloc);
    ("scc: component count", `Quick, test_scc_count);
    ("scc: membership", `Quick, test_scc_members);
    ("scc: reverse topological numbering", `Quick, test_scc_reverse_topo);
    ("topo: valid order", `Quick, test_topo_valid);
    ("topo: cyclic", `Quick, test_topo_cyclic);
    ("topo: covers all vertices", `Quick, test_topo_all_vertices);
    ("reach: basic", `Quick, test_reach_basic);
    ("reach: closure matrix vs BFS", `Quick, test_closure_matches_bfs);
    ("pearce-kelly: accepts DAG", `Quick, test_pk_accepts_dag);
    ("pearce-kelly: rejects cycle with witness", `Quick, test_pk_rejects_cycle);
    ("pearce-kelly: self loop", `Quick, test_pk_self_loop);
    ("pearce-kelly: duplicate edge", `Quick, test_pk_duplicate_edge);
    ("pearce-kelly: random stream vs batch oracle", `Quick, test_pk_random_vs_batch);
  ]
