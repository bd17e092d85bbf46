type outcome = {
  fixed : (Polygraph.edge_kind * int * int) list;
  undecided : Polygraph.constr list;
  decided : int;
  contradiction : (int * int) option;
  prune_s : float;
}

let max_rounds = 8

let run ~n (pg : Polygraph.t) ~use_anti =
  let t0 = Unix.gettimeofday () in
  let fixed = ref pg.Polygraph.known in
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
            | Polygraph.Dep -> Some (u, (), v)
            | Polygraph.Anti -> if use_anti then Some (u, (), v) else None)
          !fixed
      in
      let closure = Reach.closure_matrix (Csr.of_edges ~n known) in
      let reach u v = Reach.bit closure.(u) v in
      let still = ref [] in
      let changed = ref false in
      List.iter
        (fun (c : Polygraph.constr) ->
          let fwd = reach c.Polygraph.w1 c.Polygraph.w2 in
          let bwd = reach c.Polygraph.w2 c.Polygraph.w1 in
          if fwd && bwd then begin
            if !contradiction = None then
              contradiction := Some (c.Polygraph.w1, c.Polygraph.w2)
          end
          else if fwd then begin
            fixed := c.Polygraph.if_w1_first @ !fixed;
            incr decided;
            changed := true
          end
          else if bwd then begin
            fixed := c.Polygraph.if_w2_first @ !fixed;
            incr decided;
            changed := true
          end
          else still := c :: !still)
        remaining;
      if !changed then rounds !still (round + 1) else finish !still
    end
  in
  rounds pg.Polygraph.constraints 0
