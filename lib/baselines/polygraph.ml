type edge_kind = Dep | Anti

type choice = (edge_kind * int * int) list

type constr = {
  key : Op.key;
  w1 : int;
  w2 : int;
  if_w1_first : choice;
  if_w2_first : choice;
}

type t = {
  idx : Index.t;
  known : (edge_kind * int * int) list;
  constraints : constr list;
  construct_s : float;
}

type failure = Screen of Int_check.violation | Malformed of string

let num_constraints t = List.length t.constraints

let screen h =
  match History.unique_values h with
  | Error msg -> Error (Malformed msg)
  | Ok () -> (
      let idx = Index.build h in
      match Int_check.check idx with
      | Error v -> Error (Screen v)
      | Ok () -> Ok idx)

let build h =
  let t0 = Unix.gettimeofday () in
  match screen h with
  | Error f -> Error f
  | Ok idx -> (
      let known = ref [] in
      List.iter
        (fun (a, b) ->
          known := (Dep, Index.vertex idx a, Index.vertex idx b) :: !known)
        (History.so_pairs h);
      (* WR edges + reader lists per (writer vertex, key). *)
      let readers : (int * Op.key, int list ref) Hashtbl.t =
        Hashtbl.create 1024
      in
      let writers_of_key : (Op.key, int list ref) Hashtbl.t =
        Hashtbl.create 64
      in
      let error = ref None in
      Array.iteri
        (fun sv (s : Txn.t) ->
          List.iter
            (fun (k, _v) ->
              match Hashtbl.find_opt writers_of_key k with
              | Some r -> r := sv :: !r
              | None -> Hashtbl.replace writers_of_key k (ref [ sv ]))
            (Txn.final_writes s);
          List.iter
            (fun (k, v) ->
              match Index.writer_of idx k v with
              | Index.Final w when w <> s.id ->
                  let wv = Index.vertex idx w in
                  known := (Dep, wv, sv) :: !known;
                  let r =
                    match Hashtbl.find_opt readers (wv, k) with
                    | Some r -> r
                    | None ->
                        let r = ref [] in
                        Hashtbl.replace readers (wv, k) r;
                        r
                  in
                  r := sv :: !r
              | Index.Final _ | Index.Intermediate _ | Index.Aborted _
              | Index.Nobody ->
                  if !error = None then
                    error :=
                      Some
                        (Printf.sprintf
                           "read of %d on x%d in T%d has no committed final \
                            writer"
                           v k s.id))
            (Txn.external_reads s))
        idx.committed;
      match !error with
      | Some msg -> Error (Malformed msg)
      | None ->
          let readers_of wv k =
            match Hashtbl.find_opt readers (wv, k) with
            | Some r -> !r
            | None -> []
          in
          (* One constraint per unordered pair of writers of an object. *)
          let constraints = ref [] in
          Hashtbl.iter
            (fun k ws ->
              let ws = Array.of_list !ws in
              for i = 0 to Array.length ws - 1 do
                for j = i + 1 to Array.length ws - 1 do
                  let w1 = ws.(i) and w2 = ws.(j) in
                  let side first second =
                    (Dep, first, second)
                    :: List.filter_map
                         (fun r ->
                           if r <> second then Some (Anti, r, second) else None)
                         (readers_of first k)
                  in
                  constraints :=
                    {
                      key = k;
                      w1;
                      w2;
                      if_w1_first = side w1 w2;
                      if_w2_first = side w2 w1;
                    }
                    :: !constraints
                done
              done)
            writers_of_key;
          Ok
            {
              idx;
              known = List.rev !known;
              constraints = !constraints;
              construct_s = Unix.gettimeofday () -. t0;
            })

(* ------------------------------------------------------------------ *)
(* The level encoding. *)

let unsupported () = invalid_arg "Polygraph: SSER unsupported"

let cycle_width ~(level : Checker.level) =
  match level with SER -> 1 | SI -> 2 | SSER -> unsupported ()

(* SI's product vertices: T_d = 2v, T_r = 2v + 1. *)
let cycle_edges ~(level : Checker.level) edge edges =
  match level with
  | SER -> List.map (fun (_kind, u, v) -> edge u v) edges
  | SI ->
      List.concat_map
        (fun (kind, u, v) ->
          match kind with
          | Dep -> [ edge (2 * u) (2 * v); edge ((2 * u) + 1) (2 * v) ]
          | Anti -> [ edge (2 * u) ((2 * v) + 1) ])
        edges
  | SSER -> unsupported ()

(* ------------------------------------------------------------------ *)
(* Pruning. *)

type pruned = {
  fixed : (edge_kind * int * int) list;
  undecided : constr list;
  decided : int;
  contradiction : (int * int) option;
  prune_s : float;
}

let max_rounds = 8

let prune ~(level : Checker.level) pg =
  let use_anti =
    match level with SER -> true | SI -> false | SSER -> unsupported ()
  in
  let n = Index.num_vertices pg.idx in
  let t0 = Unix.gettimeofday () in
  let fixed = ref pg.known in
  let decided = ref 0 in
  let contradiction = ref None in
  let finish undecided =
    {
      fixed = !fixed;
      undecided;
      decided = !decided;
      contradiction = !contradiction;
      prune_s = Unix.gettimeofday () -. t0;
    }
  in
  let rec rounds remaining round =
    if round >= max_rounds || remaining = [] || !contradiction <> None then
      finish remaining
    else begin
      (* Reachability oracle over the current known graph. *)
      let known =
        List.filter_map
          (fun (kind, u, v) ->
            match kind with
            | Dep -> Some (u, (), v)
            | Anti -> if use_anti then Some (u, (), v) else None)
          !fixed
      in
      let closure = Reach.closure_matrix (Csr.of_edges ~n known) in
      let reach u v = Reach.bit closure.(u) v in
      let still = ref [] in
      let changed = ref false in
      List.iter
        (fun c ->
          let fwd = reach c.w1 c.w2 in
          let bwd = reach c.w2 c.w1 in
          if fwd && bwd then begin
            if !contradiction = None then contradiction := Some (c.w1, c.w2)
          end
          else if fwd then begin
            fixed := c.if_w1_first @ !fixed;
            incr decided;
            changed := true
          end
          else if bwd then begin
            fixed := c.if_w2_first @ !fixed;
            incr decided;
            changed := true
          end
          else still := c :: !still)
        remaining;
      if !changed then rounds !still (round + 1) else finish !still
    end
  in
  rounds pg.constraints 0

(* ------------------------------------------------------------------ *)
(* The checker: build, prune, then SAT modulo acyclicity. *)

type stats = {
  constraints_total : int;
  constraints_pruned : int;
  construct_s : float;
  prune_s : float;
  encode_s : float;
  solve_s : float;
  sat_decisions : int;
  sat_conflicts : int;
}

type result = { ok : bool; reason : string; stats : stats }

let total_s s = s.construct_s +. s.prune_s +. s.encode_s +. s.solve_s
let nonsolver_s s = s.construct_s +. s.prune_s +. s.encode_s

let empty_stats =
  {
    constraints_total = 0;
    constraints_pruned = 0;
    construct_s = 0.0;
    prune_s = 0.0;
    encode_s = 0.0;
    solve_s = 0.0;
    sat_decisions = 0;
    sat_conflicts = 0;
  }

let check ~(level : Checker.level) h =
  let width = cycle_width ~level in
  (* The reasons keep each baseline's own wording. *)
  let said ser si = if level = SI then si else ser in
  match build h with
  | Error (Screen v) ->
      {
        ok = false;
        reason = Format.asprintf "G1 screen: %a" Int_check.pp_violation v;
        stats = empty_stats;
      }
  | Error (Malformed msg) -> { ok = false; reason = msg; stats = empty_stats }
  | Ok pg -> (
      let pr = prune ~level pg in
      let stats =
        {
          empty_stats with
          constraints_total = num_constraints pg;
          constraints_pruned = pr.decided;
          construct_s = pg.construct_s;
          prune_s = pr.prune_s;
        }
      in
      match pr.contradiction with
      | Some (w1, w2) ->
          {
            ok = false;
            reason =
              Printf.sprintf "writers %d and %d are ordered both ways by %s" w1
                w2
                (said "known edges" "dependency edges");
            stats;
          }
      | None -> (
          let t0 = Unix.gettimeofday () in
          let pair u v = (u, v) in
          let acyc = Acyclicity.create ~n:(width * Index.num_vertices pg.idx) in
          match
            Acyclicity.add_fixed_batch acyc (cycle_edges ~level pair pr.fixed)
          with
          | Error path ->
              {
                ok = false;
                reason =
                  Printf.sprintf "known edges form %s through [%s]"
                    (said "a cycle" "an SI-forbidden cycle")
                    (String.concat ","
                       (List.map (fun v -> string_of_int (v / width)) path));
                stats = { stats with encode_s = Unix.gettimeofday () -. t0 };
              }
          | Ok () ->
              let nvars = List.length pr.undecided in
              let solver =
                Solver.create ~theory:(Acyclicity.theory acyc) ~nvars ()
              in
              List.iteri
                (fun i c ->
                  Acyclicity.attach acyc (Lit.make i true)
                    (cycle_edges ~level pair c.if_w1_first);
                  Acyclicity.attach acyc (Lit.make i false)
                    (cycle_edges ~level pair c.if_w2_first))
                pr.undecided;
              let encode_s = Unix.gettimeofday () -. t0 in
              let t1 = Unix.gettimeofday () in
              let outcome = Solver.solve solver in
              let solve_s = Unix.gettimeofday () -. t1 in
              let stats =
                {
                  stats with
                  encode_s;
                  solve_s;
                  sat_decisions = Solver.num_decisions solver;
                  sat_conflicts = Solver.num_conflicts solver;
                }
              in
              let ok = outcome = Solver.Sat in
              let reason =
                if ok then
                  said "acyclic choice found" "SI-compatible version order found"
                else
                  Printf.sprintf "every version order closes %s"
                    (said "a dependency cycle" "an SI-forbidden cycle")
              in
              { ok; reason; stats }))
