(** Mutable directed graphs with labeled edges over a fixed vertex set
    [0 .. n-1].  Parallel edges with distinct labels are allowed; the
    algorithms in this library treat them as a single adjacency when only
    connectivity matters. *)

type 'lab t

val create : int -> 'lab t
(** [create n] is the empty graph on vertices [0 .. n-1]. *)

val n : _ t -> int
val num_edges : _ t -> int

val add_edge : 'lab t -> int -> int -> 'lab -> unit
(** [add_edge g u v lab].  Self-loops are allowed (and make the graph
    cyclic).  Duplicate [(u, v, lab)] triples are not deduplicated. *)

val mem_edge : _ t -> int -> int -> bool
(** Is there an edge [u -> v] with any label? *)

val succ : 'lab t -> int -> (int * 'lab) list
(** Successors with labels, in insertion order. *)

val succ_vertices : 'lab t -> int -> int list
(** Successor vertices (possibly with repetitions for parallel edges). *)

val iter_succ : 'lab t -> int -> (int -> 'lab -> unit) -> unit
(** [iter_succ g u f] calls [f v lab] for every edge [u -> v] in
    insertion order, without materializing a successor list (the DFS/BFS
    hot paths previously paid one [List.rev] per visit). *)

val iter_succ_vertices : 'lab t -> int -> (int -> unit) -> unit

val iter_edges : 'lab t -> (int -> 'lab -> int -> unit) -> unit
(** [iter_edges g f] calls [f u lab v] for every edge. *)

val fold_edges : 'lab t -> ('acc -> int -> 'lab -> int -> 'acc) -> 'acc -> 'acc

val transpose : 'lab t -> 'lab t

val out_degree : _ t -> int -> int
