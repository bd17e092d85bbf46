type 'lab t = {
  adj : (int * 'lab) list array;  (** reversed insertion order *)
  mutable edge_count : int;
}

let create n = { adj = Array.make n []; edge_count = 0 }

let n g = Array.length g.adj
let num_edges g = g.edge_count

let add_edge g u v lab =
  g.adj.(u) <- (v, lab) :: g.adj.(u);
  g.edge_count <- g.edge_count + 1

let mem_edge g u v = List.exists (fun (w, _) -> w = v) g.adj.(u)

let succ g u = List.rev g.adj.(u)

let succ_vertices g u = List.rev_map fst g.adj.(u)

(* Insertion-order iteration without materializing a reversed copy: the
   adjacency is stored newest-first, so recurse to the end of the list and
   emit on the way back.  Stack depth is the out-degree; beyond a bound we
   fall back to one [List.rev] rather than risk the native stack on
   pathological fan-out (e.g. naive RT encodings). *)
let iter_succ g u f =
  let rec go depth l =
    match l with
    | [] -> ()
    | (v, lab) :: tl ->
        if depth >= 10_000 then
          List.iter (fun (v, lab) -> f v lab) (List.rev l)
        else begin
          go (depth + 1) tl;
          f v lab
        end
  in
  go 0 g.adj.(u)

let iter_succ_vertices g u f = iter_succ g u (fun v _ -> f v)

let iter_edges g f =
  for u = 0 to Array.length g.adj - 1 do
    iter_succ g u (fun v lab -> f u lab v)
  done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun u lab v -> acc := f !acc u lab v);
  !acc

let transpose g =
  let g' = create (n g) in
  iter_edges g (fun u lab v -> add_edge g' v u lab);
  g'

let out_degree g u = List.length g.adj.(u)
