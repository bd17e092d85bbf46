(** Strongly connected components (Tarjan, iterative, over {!Csr}
    graphs — flat int-array traversal state, no per-visit
    allocation). *)

val component_ids_csr : _ Csr.t -> int array * int
(** [component_ids_csr g = (comp, k)]: [comp.(v)] is the component index
    of [v] (indices [0 .. k-1], numbered in reverse topological
    order). *)
