(** Cycle detection with witness extraction.

    The checkers report isolation violations as concrete dependency cycles
    (paper Step 4 of Figure 2), so beyond a boolean answer we extract the
    edge sequence of some cycle.

    The DFS kernel runs over the frozen {!Csr} representation with flat
    int-array state — zero allocation per vertex/edge visit.  The
    [Digraph] entry points freeze a snapshot first; callers that already
    hold a [Csr.t] (e.g. {!Deps.freeze}) call {!find_csr} directly. *)

val find : 'lab Digraph.t -> (int * 'lab * int) list option
(** [find g] is [None] if [g] is acyclic, otherwise [Some edges] where
    [edges = [(v0,l0,v1); (v1,l1,v2); ...; (vk,lk,v0)]] is a simple cycle.
    Iterative DFS over a CSR snapshot; O(V + E). *)

val is_acyclic : 'lab Digraph.t -> bool

val find_csr : 'lab Csr.t -> (int * 'lab * int) list option
(** {!find} over an already-frozen graph: no conversion, no per-visit
    allocation (only the O(V) scratch arrays and the witness). *)

