(* Property tests (QCheck) for the flat Pearce–Kelly structure: random
   edge streams cross-checked against a brute-force acyclicity oracle,
   in-place growth via [ensure], batch freeing and id reuse, and the Online checker's equivalence
   with the batch checkers on randomized engine histories. *)

let qtest = QCheck_alcotest.to_alcotest

(* Brute-force oracle: plain edge list, DFS reachability. *)
module Oracle = struct
  type t = { n : int; mutable edges : (int * int) list }

  let create n = { n; edges = [] }
  let mem t u v = List.mem (u, v) t.edges

  let reaches t src dst =
    let visited = Array.make t.n false in
    let rec go u =
      u = dst
      || (not visited.(u)
         && (visited.(u) <- true;
             List.exists (fun (a, b) -> a = u && go b) t.edges))
    in
    go src

  (* Mirrors the documented [add_edge] contract. *)
  type verdict = Dup | Cycle | Added

  let add t u v =
    if mem t u v then Dup
    else if u = v || reaches t v u then Cycle
    else (
      t.edges <- (u, v) :: t.edges;
      Added)
end

(* An [Error path] must be a real path [v; ...; u] over accepted edges:
   the cycle witness [u -> v -> ... -> u] has to replay against the
   oracle's edge set. *)
let path_valid (o : Oracle.t) u v = function
  | [] -> false
  | p :: _ as path ->
      let rec ends = function [ x ] -> x = u | _ :: tl -> ends tl | [] -> false in
      let rec chained = function
        | a :: (b :: _ as tl) -> Oracle.mem o a b && chained tl
        | _ -> true
      in
      (if u = v then path = [ u ] else p = v) && ends path && chained path

let edges_gen ~n ~len =
  QCheck2.Gen.(
    list_size (int_range 1 len) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))))

let print_edges es =
  String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) es)

(* P1: PK agrees with the oracle on accept/reject, counts distinct edges
   only, reports replayable cycle witnesses, and keeps its invariant. *)
let prop_pk_matches_oracle =
  let n = 10 in
  QCheck2.Test.make ~name:"PK == brute-force oracle (fixed capacity)"
    ~count:120 ~print:print_edges (edges_gen ~n ~len:80) (fun es ->
      let pk = Pearce_kelly.create n in
      let o = Oracle.create n in
      List.for_all
        (fun (u, v) ->
          let step_ok =
            match (Pearce_kelly.add_edge pk u v, Oracle.add o u v) with
            | Ok (), (Oracle.Added | Oracle.Dup) -> true
            | Error path, Oracle.Cycle -> path_valid o u v path
            | _ -> false
          in
          step_ok
          && Pearce_kelly.num_edges pk = List.length o.Oracle.edges
          && List.for_all
               (fun (a, b) ->
                 Pearce_kelly.order_index pk a < Pearce_kelly.order_index pk b)
               o.Oracle.edges)
        es
      && Pearce_kelly.check_invariant pk)

(* P2: growing in place with [ensure] mid-stream behaves exactly like a
   structure born at full capacity — no edge replay needed. *)
let prop_pk_ensure_growth =
  let n = 40 in
  QCheck2.Test.make ~name:"PK in-place growth == fixed capacity" ~count:120
    ~print:print_edges (edges_gen ~n ~len:100) (fun es ->
      let grown = Pearce_kelly.create 1 in
      let fixed = Pearce_kelly.create n in
      let o = Oracle.create n in
      List.for_all
        (fun (u, v) ->
          Pearce_kelly.ensure grown (1 + max u v);
          let rg = Pearce_kelly.add_edge grown u v in
          let rf = Pearce_kelly.add_edge fixed u v in
          let accepted = Oracle.add o u v <> Oracle.Cycle in
          Result.is_ok rg = accepted && Result.is_ok rf = accepted)
        es
      && Pearce_kelly.num_edges grown = Pearce_kelly.num_edges fixed
      && Pearce_kelly.check_invariant grown)

(* P3: [free] over every vertex below a random position (vertex 0, which
   stands in for the online checker's initial transaction, is kept
   wherever it sits) drops exactly the edges with a freed endpoint,
   keeps every surviving edge's label and holds the invariant, so no
   kept vertex's vectors still name a freed one; [fresh] lifts each reused id above every other vertex; and the
   structure then accepts/rejects a fresh edge stream over survivors
   and reused ids exactly like an oracle seeded with the surviving
   edges, holding the invariant after every operation. *)
let prop_pk_free =
  let n = 12 in
  let gen =
    QCheck2.Gen.(
      let* es = edges_gen ~n ~len:80 in
      let* cut = int_range 0 n in
      let* after = edges_gen ~n ~len:30 in
      return (es, cut, after))
  in
  let print (es, cut, after) =
    Printf.sprintf "edges=[%s] cut=%d after=[%s]" (print_edges es) cut
      (print_edges after)
  in
  QCheck2.Test.make ~name:"PK free + reuse == oracle"
    ~count:200 ~print gen (fun (es, cut, after) ->
      let pk = Pearce_kelly.create n in
      let o = Oracle.create n in
      let lab u v = (u * n) + v in
      List.iter
        (fun (u, v) ->
          ignore (Pearce_kelly.add_labelled_edge pk u v (lab u v));
          ignore (Oracle.add o u v))
        es;
      let pos = Pearce_kelly.order_index pk in
      let below = List.filter (fun v -> v <> 0) (List.init n Fun.id) in
      let by_pos = List.sort (fun a b -> compare (pos a) (pos b)) below in
      let freed = List.filteri (fun i _ -> i < cut) by_pos in
      let surviving =
        List.filter
          (fun (u, v) -> not (List.mem u freed || List.mem v freed))
          o.Oracle.edges
      in
      Pearce_kelly.free pk (Array.of_list freed);
      Pearce_kelly.num_edges pk = List.length surviving
      && List.for_all
           (fun (u, v) -> Pearce_kelly.label pk u v = lab u v)
           surviving
      && List.for_all (fun v -> Pearce_kelly.label pk v 0 = -1) freed
      && Pearce_kelly.check_invariant pk
      && List.for_all
           (fun v ->
             Pearce_kelly.fresh pk v;
             List.for_all (fun x -> x = v || pos x < pos v) (List.init n Fun.id))
           freed
      &&
      let o2 = Oracle.create n in
      o2.Oracle.edges <- surviving;
      List.for_all
        (fun (u, v) ->
          (match (Pearce_kelly.add_edge pk u v, Oracle.add o2 u v) with
          | Ok (), (Oracle.Added | Oracle.Dup) -> true
          | Error path, Oracle.Cycle -> path_valid o2 u v path
          | _ -> false)
          && Pearce_kelly.num_edges pk = List.length o2.Oracle.edges
          && Pearce_kelly.check_invariant pk)
        after)

(* P3b: SAT backtracking interleaves [remove_edge] with insertions.
   Accept/reject still matches the oracle, and the invariant (which
   includes the predecessor vectors agreeing with the edge set) holds
   after every operation. *)
let prop_pk_add_remove =
  let n = 10 in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 150)
        (triple
           (frequency [ (3, return true); (1, return false) ])
           (int_range 0 (n - 1))
           (int_range 0 (n - 1))))
  in
  let print ops =
    String.concat "; "
      (List.map
         (fun (add, u, v) ->
           Printf.sprintf "%s%d->%d" (if add then "+" else "-") u v)
         ops)
  in
  QCheck2.Test.make ~name:"PK add/remove == oracle, invariant after each op"
    ~count:120 ~print gen (fun ops ->
      let pk = Pearce_kelly.create n in
      let o = Oracle.create n in
      List.for_all
        (fun (add, u, v) ->
          let step_ok =
            if add then
              match (Pearce_kelly.add_edge pk u v, Oracle.add o u v) with
              | Ok (), (Oracle.Added | Oracle.Dup) -> true
              | Error path, Oracle.Cycle -> path_valid o u v path
              | _ -> false
            else begin
              Pearce_kelly.remove_edge pk u v;
              o.Oracle.edges <-
                List.filter (fun e -> e <> (u, v)) o.Oracle.edges;
              true
            end
          in
          step_ok
          && Pearce_kelly.num_edges pk = List.length o.Oracle.edges
          && Pearce_kelly.check_invariant pk)
        ops)

(* P4/P5: the streaming checker and the batch checker agree on random
   engine histories, healthy and faulty, at every level. *)
let config_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* num_keys = int_range 2 20 in
    let* num_txns = int_range 20 200 in
    let* num_sessions = int_range 1 8 in
    let* level = oneofl [ Checker.SI; Checker.SER; Checker.SSER ] in
    let* fault =
      oneofl
        [ Fault.No_fault; Fault.Lost_update 0.15; Fault.Aborted_read 0.15;
          Fault.Causality_violation 0.1 ]
    in
    return (seed, num_keys, num_txns, num_sessions, level, fault))

let print_config (seed, num_keys, num_txns, num_sessions, level, fault) =
  Printf.sprintf "seed=%d keys=%d txns=%d sessions=%d level=%s fault=%s" seed
    num_keys num_txns num_sessions (Checker.level_name level)
    (Fault.name fault)

(* Commit-order stream, as a monitoring proxy would deliver it. *)
let stream_of (h : History.t) =
  Array.to_list h.History.txns
  |> List.filter (fun (t : Txn.t) -> t.Txn.id <> History.init_id)
  |> List.sort (fun (a : Txn.t) b -> compare a.Txn.commit_ts b.Txn.commit_ts)

let prop_online_equals_batch =
  QCheck2.Test.make ~name:"Online.check_stream == batch Checker.check"
    ~count:60 ~print:print_config
    config_gen (fun (seed, num_keys, num_txns, num_sessions, level, fault) ->
      let spec =
        Mt_gen.generate
          { Mt_gen.num_sessions; num_txns; num_keys;
            dist = Distribution.Uniform; seed }
      in
      let db = { Db.level = Isolation.Serializable; fault; num_keys; seed } in
      let h =
        (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db
           ~spec ())
          .Scheduler.history
      in
      let batch = Checker.passes (Checker.check level h) in
      let online =
        Result.is_ok (Online.check_stream ~level ~num_keys (stream_of h))
      in
      batch = online)

let suite =
  [
    qtest prop_pk_matches_oracle;
    qtest prop_pk_ensure_growth;
    qtest prop_pk_free;
    qtest prop_pk_add_remove;
    qtest prop_online_equals_batch;
  ]
