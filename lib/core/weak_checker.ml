type level = Read_committed | Read_atomic | Causal

let level_name = function
  | Read_committed -> "RC"
  | Read_atomic -> "RA"
  | Causal -> "CC"

type violation =
  | Intra of Int_check.violation
  | G1c_cycle of (Txn.id * Deps.dep * Txn.id) list
  | Fractured of {
      reader : Txn.id;
      writer : Txn.id;
      read_key : Op.key;
      stale_key : Op.key;
    }
  | Causality of {
      reader : Txn.id;
      stale_key : Op.key;
      missed_writer : Txn.id;
    }
  | Hb_cycle of (Txn.id * Deps.dep * Txn.id) list
  | Malformed of string

type outcome = Pass | Fail of violation

let pp_violation ppf = function
  | Intra v -> Int_check.pp_violation ppf v
  | G1c_cycle cycle ->
      Format.fprintf ppf "@[<h>G1c cycle:";
      List.iter
        (fun (a, dep, b) ->
          Format.fprintf ppf " T%d -%a-> T%d;" a Deps.pp_dep dep b)
        cycle;
      Format.fprintf ppf "@]"
  | Fractured { reader; writer; read_key; stale_key } ->
      Format.fprintf ppf
        "fractured read: T%d reads x%d from T%d but an older version of x%d"
        reader read_key writer stale_key
  | Causality { reader; stale_key; missed_writer } ->
      Format.fprintf ppf
        "causality violation: T%d misses the causally prior write of T%d on \
         x%d"
        reader missed_writer stale_key
  | Hb_cycle cycle ->
      Format.fprintf ppf "@[<h>cyclic causal order:";
      List.iter
        (fun (a, dep, b) ->
          Format.fprintf ppf " T%d -%a-> T%d;" a Deps.pp_dep dep b)
        cycle;
      Format.fprintf ppf "@]"
  | Malformed msg -> Format.fprintf ppf "malformed history: %s" msg

let passes = function Pass -> true | Fail _ -> false

(* ------------------------------------------------------------------ *)
(* Version trees: one node per final write (key, value); a node's parent
   is the version its writer read (the RMW source).  Euler-tour intervals
   give O(1) ancestor tests; for CC, per-node subtree-writer bitsets give
   O(n/64) "does any causal predecessor sit below this version" tests. *)

type node = {
  n_writer : Txn.id;
  mutable n_children : Op.value list;
  mutable n_in : int;  (** Euler-tour entry *)
  mutable n_out : int;  (** Euler-tour exit *)
  mutable n_below : Bytes.t;
      (** writers of strict descendants (vertex bits); empty unless built
          [~below:true] *)
}

type tree = { nodes : (Op.value, node) Hashtbl.t; mutable roots : Op.value list }

exception Bad of violation

let build_trees ~below (idx : Index.t) =
  let num_keys = idx.history.History.num_keys in
  let trees = Array.init num_keys (fun _ -> { nodes = Hashtbl.create 16; roots = [] }) in
  (* Nodes for every committed final write. *)
  Array.iter
    (fun (t : Txn.t) ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace trees.(k).nodes v
            { n_writer = t.id; n_children = []; n_in = 0; n_out = 0;
              n_below = Bytes.empty })
        (Txn.final_writes t))
    idx.committed;
  (* Parent edges from the writers' RMW reads. *)
  Array.iter
    (fun (t : Txn.t) ->
      List.iter
        (fun (k, v) ->
          if t.id = History.init_id then
            trees.(k).roots <- v :: trees.(k).roots
          else
            match Txn.read_of t k with
            | Some parent_value -> (
                match Hashtbl.find_opt trees.(k).nodes parent_value with
                | Some parent -> parent.n_children <- v :: parent.n_children
                | None ->
                    raise
                      (Bad
                         (Malformed
                            (Printf.sprintf
                               "write of x%d by T%d extends an unknown version"
                               k t.id))))
            | None ->
                raise
                  (Bad
                     (Malformed
                        (Printf.sprintf
                           "blind write of x%d by T%d: not a mini-transaction"
                           k t.id))))
        (Txn.final_writes t))
    idx.committed;
  (* Euler tour + (with [below]) subtree writer sets, in post-order. *)
  let n = Index.num_vertices idx in
  let row_len = (n + 7) / 8 in
  let set_bit row v =
    Bytes.set row (v lsr 3)
      (Char.chr (Char.code (Bytes.get row (v lsr 3)) lor (1 lsl (v land 7))))
  in
  let or_into dst src =
    for i = 0 to row_len - 1 do
      Bytes.set dst i
        (Char.chr (Char.code (Bytes.get dst i) lor Char.code (Bytes.get src i)))
    done
  in
  Array.iter
    (fun tree ->
      let clock = ref 0 in
      let rec stack_visit stack =
        match stack with
        | [] -> ()
        | `Enter value :: rest ->
            let node = Hashtbl.find tree.nodes value in
            node.n_in <- !clock;
            incr clock;
            if below then node.n_below <- Bytes.make row_len '\000';
            stack_visit
              (List.map (fun c -> `Enter c) node.n_children
              @ (`Exit value :: rest))
        | `Exit value :: rest ->
            let node = Hashtbl.find tree.nodes value in
            node.n_out <- !clock;
            incr clock;
            if below then
              List.iter
                (fun c ->
                  let child = Hashtbl.find tree.nodes c in
                  or_into node.n_below child.n_below;
                  (* bits index committed vertices, not transaction ids *)
                  set_bit node.n_below (Index.vertex idx child.n_writer))
                node.n_children;
            stack_visit rest
      in
      stack_visit (List.map (fun r -> `Enter r) tree.roots)
    )
    trees;
  trees

let node_of trees k v =
  match Hashtbl.find_opt trees.(k).nodes v with
  | Some node -> node
  | None -> raise (Bad (Malformed (Printf.sprintf "no version %d of x%d" v k)))

(* Is [a] a strict ancestor of [b]?  (Same key's tree.) *)
let strict_ancestor a b = a.n_in < b.n_in && b.n_out < a.n_out

(* ------------------------------------------------------------------ *)

let g1c_check (idx : Index.t) =
  match Deps.build ~rt:Deps.No_rt idx with
  | Error e -> raise (Bad (Malformed (Format.asprintf "%a" Deps.pp_error e)))
  | Ok d -> (
      (* The frozen graph's WR/WW edges in its own order: walking it
         backwards and consing keeps every source's block as it is. *)
      let c = Deps.freeze d in
      let edges = ref [] in
      for u = Csr.n c - 1 downto 0 do
        for e = c.Csr.offsets.(u + 1) - 1 downto c.Csr.offsets.(u) do
          match c.Csr.labels.(e) with
          | (Deps.WR _ | Deps.WW _) as lab ->
              edges := (u, lab, c.Csr.targets.(e)) :: !edges
          | Deps.SO | Deps.RT | Deps.RW _ | Deps.Rt_chain -> ()
        done
      done;
      let g = Csr.of_edges ~n:d.Deps.num_txn_vertices !edges in
      match Cycle.find_csr g with
      | Some cycle -> raise (Bad (G1c_cycle (Deps.to_txn_cycle d cycle)))
      | None -> d)

let fractured_check (idx : Index.t) trees =
  Array.iter
    (fun (r : Txn.t) ->
      let reads = Txn.external_reads r in
      List.iter
        (fun (x, v) ->
          match Index.writer_of idx x v with
          | Index.Final w when w <> r.id && w <> History.init_id ->
              let writer_txn = History.txn idx.history w in
              List.iter
                (fun (y, vy) ->
                  if y <> x then
                    match Txn.write_of writer_txn y with
                    | Some wy ->
                        let read_node = node_of trees y vy in
                        let written_node = node_of trees y wy in
                        if strict_ancestor read_node written_node then
                          raise
                            (Bad
                               (Fractured
                                  { reader = r.id; writer = w; read_key = x;
                                    stale_key = y }))
                    | None -> ())
                reads
          | _ -> ())
        reads)
    idx.committed

let causal_check (idx : Index.t) trees =
  let n = Index.num_vertices idx in
  (* hb = (SO ∪ WR)+ over committed vertices: the SO pairs, then each
     reader's WR edges in scan order. *)
  let rev_edges = ref [] in
  let add u lab v = rev_edges := (u, lab, v) :: !rev_edges in
  List.iter
    (fun (a, b) -> add (Index.vertex idx a) Deps.SO (Index.vertex idx b))
    (History.so_pairs idx.history);
  Array.iteri
    (fun sv (s : Txn.t) ->
      List.iter
        (fun (k, v) ->
          match Index.writer_of idx k v with
          | Index.Final w when w <> s.id ->
              add (Index.vertex idx w) (Deps.WR k) sv
          | _ -> ())
        (Txn.external_reads s))
    idx.committed;
  (match Cycle.find_csr (Csr.of_edges ~n (List.rev !rev_edges)) with
  | Some cycle ->
      let to_txn (u, lab, v) =
        ( (Index.txn_of_vertex idx u).Txn.id, lab,
          (Index.txn_of_vertex idx v).Txn.id )
      in
      raise (Bad (Hb_cycle (List.map to_txn cycle)))
  | None -> ());
  (* hb-predecessor bitsets: closure of the transpose. *)
  let transpose = List.rev_map (fun (u, lab, v) -> (v, lab, u)) !rev_edges in
  let pred_rows = Reach.closure_matrix (Csr.of_edges ~n transpose) in
  (* A read is stale if some strict descendant of the returned version was
     written by an hb-predecessor of the reader (other than itself). *)
  Array.iteri
    (fun rv (r : Txn.t) ->
      List.iter
        (fun (y, v) ->
          let node = node_of trees y v in
          if Bytes.length node.n_below > 0 then begin
            let preds = pred_rows.(rv) in
            let len = Bytes.length node.n_below in
            let missed = ref (-1) in
            (try
               for i = 0 to len - 1 do
                 let both =
                   Char.code (Bytes.get node.n_below i)
                   land Char.code (Bytes.get preds i)
                 in
                 if both <> 0 then
                   for b = 0 to 7 do
                     if both land (1 lsl b) <> 0 then begin
                       let vertex = (i * 8) + b in
                       if vertex <> rv then begin
                         missed := vertex;
                         raise Exit
                       end
                     end
                   done
               done
             with Exit -> ());
            if !missed >= 0 then
              raise
                (Bad
                   (Causality
                      {
                        reader = r.id;
                        stale_key = y;
                        missed_writer = (Index.txn_of_vertex idx !missed).Txn.id;
                      }))
          end)
        (Txn.external_reads r))
    idx.committed

let check level h =
  match History.unique_values h with
  | Error msg -> Fail (Malformed msg)
  | Ok () -> (
      let idx = Index.build h in
      match Int_check.check idx with
      | Error v -> Fail (Intra v)
      | Ok () -> (
          try
            ignore (g1c_check idx);
            (match level with
            | Read_committed -> ()
            | Read_atomic -> fractured_check idx (build_trees ~below:false idx)
            | Causal ->
                let trees = build_trees ~below:true idx in
                fractured_check idx trees;
                causal_check idx trees);
            Pass
          with Bad v -> Fail v))

let check_rc h = check Read_committed h
let check_ra h = check Read_atomic h
let check_causal h = check Causal h
