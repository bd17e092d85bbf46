(** Cycle detection with witness extraction.

    The checkers report isolation violations as concrete dependency cycles
    (paper Step 4 of Figure 2), so beyond a boolean answer we extract the
    edge sequence of some cycle.  The DFS runs over a {!Csr} graph with
    flat int-array state — zero allocation per vertex/edge visit. *)

val find_csr : 'lab Csr.t -> (int * 'lab * int) list option
(** [find_csr g] is [None] if [g] is acyclic, otherwise [Some edges]
    where [edges = [(v0,l0,v1); (v1,l1,v2); ...; (vk,lk,v0)]] is a
    simple cycle.  Roots are tried in vertex order and each vertex's
    edges in CSR order.  Iterative DFS, O(V + E); allocates only the
    O(V) scratch arrays and the witness. *)
