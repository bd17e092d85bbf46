(* Tests for mtc.graph: Csr, Cycle, Scc, Topo, Reach, Pearce_kelly. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let of_edges n edges =
  Csr.of_edges ~n (List.map (fun (u, v) -> (u, (), v)) edges)

let is_acyclic g = Cycle.find_csr g = None

(* [pos.(u) < pos.(v)] for every edge [u -> v]. *)
let is_order (g : _ Csr.t) pos =
  let ok = ref true in
  for u = 0 to Csr.n g - 1 do
    Csr.iter_succ g u (fun v _ -> if pos.(u) >= pos.(v) then ok := false)
  done;
  !ok

(* --- Cycle --- *)

let test_cycle_none_empty () =
  checkb "empty acyclic" true (is_acyclic (of_edges 5 []))

let test_cycle_none_dag () =
  checkb "dag" true (is_acyclic (of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]))

let test_cycle_self_loop () =
  match Cycle.find_csr (of_edges 3 [ (1, 1) ]) with
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
  match Cycle.find_csr (of_edges 4 edges) with
  | Some c ->
      checkb "valid witness" true (valid_cycle edges c);
      (* DFS from vertex 0, edges in list order. *)
      checkb "pinned witness" true (c = [ (0, (), 1); (1, (), 2); (2, (), 0) ])
  | None -> Alcotest.fail "cycle missed"

let test_cycle_long () =
  let n = 50_000 in
  let edges = List.init (n - 1) (fun i -> (i, i + 1)) @ [ (n - 1, 0) ] in
  match Cycle.find_csr (of_edges n edges) with
  | Some c -> checki "full cycle" n (List.length c)
  | None -> Alcotest.fail "long cycle missed"

let test_cycle_deep_dag () =
  (* No stack overflow on a path of 200k vertices. *)
  let n = 200_000 in
  let edges = List.init (n - 1) (fun i -> (i, i + 1)) in
  checkb "deep dag acyclic" true (is_acyclic (of_edges n edges))

(* --- Csr --- *)

let test_csr_roundtrip () =
  let edges = [ (0, "a", 1); (2, "c", 3); (0, "b", 2); (2, "d", 0) ] in
  let c = Csr.of_edges ~n:4 edges in
  checki "n" 4 (Csr.n c);
  checki "edges" 4 (Csr.num_edges c);
  for u = 0 to 3 do
    let expected =
      List.filter_map
        (fun (a, l, b) -> if a = u then Some (b, l) else None)
        edges
    in
    Alcotest.check
      (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
      (Printf.sprintf "succ %d matches" u)
      expected (Csr.succ c u);
    checki (Printf.sprintf "out_degree %d" u) (List.length expected)
      (Csr.out_degree c u)
  done;
  checkb "mem 2->0" true (Csr.mem_edge c 2 0);
  checkb "no 1->2" false (Csr.mem_edge c 1 2)

let test_csr_empty () =
  let c = of_edges 5 [] in
  checki "n" 5 (Csr.n c);
  checki "edges" 0 (Csr.num_edges c);
  checkb "no cycle" true (Cycle.find_csr c = None)

let test_csr_iter_succ_order () =
  let edges = List.init 100 (fun i -> (0, i + 1, (i + 1) mod 2)) in
  let c = Csr.of_edges ~n:2 edges in
  let seen = ref [] in
  Csr.iter_succ c 0 (fun v lab -> seen := (v, lab) :: !seen);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "insertion order"
    (List.map (fun (_, lab, v) -> (v, lab)) edges)
    (List.rev !seen)

(* Reference [find]: the textbook recursive three-colour DFS straight over
   the edge list, roots in vertex order and each vertex's edges in list
   order, closing on the first edge into a grey vertex — the contract
   [Cycle.find_csr] documents.  Recursive, so small graphs only. *)
let ref_find (type lab) n (edges : (int * lab * int) list) =
  let colour = Array.make n 0 in
  let exception Found of (int * lab * int) list in
  (* [path] holds the tree edges from the root down to [u], newest first. *)
  let rec visit path u =
    colour.(u) <- 1;
    List.iter
      (fun ((a, _, v) as e) ->
        if a = u then
          match colour.(v) with
          | 0 -> visit (e :: path) v
          | 1 ->
              let rec back acc = function
                | ((s, _, _) as p) :: rest ->
                    if s = v then p :: acc else back (p :: acc) rest
                | [] -> acc
              in
              raise (Found (if v = u then [ e ] else back [ e ] path))
          | _ -> ())
      edges;
    colour.(u) <- 2
  in
  try
    for u = 0 to n - 1 do
      if colour.(u) = 0 then visit [] u
    done;
    None
  with Found c -> Some c

let test_csr_cycle_witness () =
  (* Labels tell parallel edges apart, so a match pins which edge of each
     hop the witness took, not just the vertices. *)
  let edges =
    [ (0, "a", 1); (1, "b", 3); (1, "c", 2); (2, "d", 3); (2, "e", 0);
      (2, "g", 0) ]
  in
  let got = Cycle.find_csr (Csr.of_edges ~n:4 edges) in
  (* 3 finishes black via b, d skips it, e closes before its twin g. *)
  checkb "fixed graph" true
    (got = Some [ (0, "a", 1); (1, "c", 2); (2, "e", 0) ]);
  checkb "fixed graph vs reference" true (got = ref_find 4 edges);
  let rng = Rng.create 977 in
  for _ = 1 to 200 do
    let n = 1 + Rng.int rng 12 in
    let edges =
      List.init (Rng.int rng 30) (fun i -> (Rng.int rng n, i, Rng.int rng n))
    in
    let got = Cycle.find_csr (Csr.of_edges ~n edges) in
    (match got with
    | Some c ->
        checkb "witness is a cycle" true
          (valid_cycle (List.map (fun (u, _, v) -> (u, v)) edges) c)
    | None -> ());
    if got <> ref_find n edges then
      Alcotest.failf "find_csr differs from the reference DFS (n=%d, %d edges)"
        n (List.length edges)
  done

let test_csr_random_agreement () =
  (* The cycle, topo and SCC kernels agree on random graphs: acyclic iff
     a topological order exists iff every SCC is one vertex without a
     self-loop; and each kernel's answer checks out on its own. *)
  let rng = Rng.create 4242 in
  for _ = 1 to 30 do
    let n = 2 + Rng.int rng 25 in
    let edges =
      List.init (Rng.int rng 50) (fun _ -> (Rng.int rng n, Rng.int rng n))
    in
    let c = of_edges n edges in
    let cycle = Cycle.find_csr c in
    let order = Topo.sort_csr c in
    let ids, k = Scc.component_ids_csr c in
    let trivial_sccs =
      k = n && List.for_all (fun (u, v) -> u <> v) edges
    in
    checkb "find vs sort" true (cycle = None = (order <> None));
    checkb "find vs scc" true (cycle = None = trivial_sccs);
    (match cycle with
    | Some cyc ->
        checkb "witness is a cycle" true (valid_cycle edges cyc);
        checkb "witness inside one scc" true
          (List.for_all (fun (u, _, v) -> ids.(u) = ids.(v)) cyc)
    | None -> ());
    match order with
    | Some order ->
        checki "order covers every vertex" n (List.length order);
        let pos = Array.make n 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        checkb "order respects edges" true (is_order c pos)
    | None -> ()
  done

let test_csr_find_no_per_visit_alloc () =
  (* The flat DFS allocates only its O(n) scratch arrays — nothing per
     visited edge.  On a ~10-edges-per-vertex DAG the old list-based DFS
     allocated >= 24*E bytes just materializing successor lists, which
     this bound (linear in n, independent of E) rules out. *)
  let n = 20_000 in
  let edges = ref [] in
  let rng = Rng.create 9 in
  for u = 0 to n - 2 do
    for _ = 1 to 10 do
      let v = u + 1 + Rng.int rng (n - u - 1) in
      edges := (u, (), v) :: !edges
    done
  done;
  let c = Csr.of_edges ~n (List.rev !edges) in
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
  let _, k = Scc.component_ids_csr g in
  checki "3 components" 3 k (* {0,1,2}, {3,4}, {5} *)

let test_scc_members () =
  let g = of_edges 5 [ (0, 1); (1, 0); (2, 3) ] in
  let comp, _ = Scc.component_ids_csr g in
  checkb "0 and 1 together" true (comp.(0) = comp.(1));
  checkb "2 and 3 apart" true (comp.(2) <> comp.(3))

let test_scc_reverse_topo () =
  (* Tarjan numbers components in reverse topological order. *)
  let g = of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let comp, _ = Scc.component_ids_csr g in
  checkb "sink numbered first" true (comp.(3) < comp.(0))

(* --- Topo --- *)

let test_topo_valid () =
  let g = of_edges 5 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ] in
  match Topo.sort_csr g with
  | Some order ->
      let pos = Array.make 5 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      checkb "respects edges" true (is_order g pos)
  | None -> Alcotest.fail "dag has no topo order?"

let test_topo_cyclic () =
  checkb "cyclic has none" true
    (Topo.sort_csr (of_edges 3 [ (0, 1); (1, 0) ]) = None)

let test_topo_all_vertices () =
  match Topo.sort_csr (of_edges 4 [ (2, 3) ]) with
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
    let edges = ref [] in
    let pk_alive = ref true in
    for _ = 1 to 3 * n do
      let u = Rng.int rng n and v = Rng.int rng n in
      if !pk_alive && u <> v then begin
        let before_cyclic = not (is_acyclic (of_edges n !edges)) in
        assert (not before_cyclic);
        edges := (u, v) :: !edges;
        match Pearce_kelly.add_edge pk u v with
        | Ok () ->
            if not (is_acyclic (of_edges n !edges)) then
              Alcotest.fail "PK accepted a cycle-closing edge";
            if not (Pearce_kelly.check_invariant pk) then
              Alcotest.fail "PK invariant broken"
        | Error _ ->
            (* Verify the edge really closes a cycle. *)
            if is_acyclic (of_edges n !edges) then
              Alcotest.fail "PK rejected an acceptable edge";
            pk_alive := false
      end
    done
  done

let suite =
  [
    ("cycle: empty graph", `Quick, test_cycle_none_empty);
    ("cycle: dag", `Quick, test_cycle_none_dag);
    ("cycle: self loop", `Quick, test_cycle_self_loop);
    ("cycle: witness is valid", `Quick, test_cycle_witness_valid);
    ("cycle: 50k-cycle", `Quick, test_cycle_long);
    ("cycle: 200k-deep dag, no overflow", `Quick, test_cycle_deep_dag);
    ("csr: of_edges round-trip", `Quick, test_csr_roundtrip);
    ("csr: empty graph", `Quick, test_csr_empty);
    ("csr: iter_succ insertion order", `Quick, test_csr_iter_succ_order);
    ("csr: cycle witness matches find", `Quick, test_csr_cycle_witness);
    ("csr: random agreement across kernels", `Quick,
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
