(** Reachability queries over {!Csr} graphs.  The dense transitive
    closure serves the Cobra-style constraint pruning (decide a
    polygraph constraint when known edges already order the two writes)
    and the causal checker's hb-predecessor sets; the BFS [reachable] is
    its test reference. *)

val reachable : _ Csr.t -> int -> int -> bool
(** [reachable g u v]: is there a path [u ->* v]?  BFS, O(V + E). *)

val closure_matrix : _ Csr.t -> Bytes.t array
(** Dense transitive-closure bitmap: bit [v] of row [u] iff [u ->* v]
    ([u ->* u] always set).  O(V·E / 8) space-efficient rows; intended for
    graphs up to a few thousand vertices (polygraph pruning). *)

val bit : Bytes.t -> int -> bool
(** Test bit [v] in a closure row. *)
