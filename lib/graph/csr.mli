(** Static directed graphs in compressed-sparse-row form: the one graph
    representation of the batch checkers and the baselines.

    A [Csr.t] packs the adjacency structure into three flat arrays —
    [offsets] (length [n + 1]), [targets] and [labels] (length [E]) —
    so the verification kernels ({!Cycle}, {!Scc}, {!Topo}, {!Reach})
    can walk successors by integer indexing with zero per-visit
    allocation and cache-friendly sequential access.  Every constructor
    keeps each source's edges in the order they were given, so a DFS
    visits edges, and reports witnesses, in that order.  The online
    checker's incremental graph is {!Pearce_kelly}. *)

type 'lab t = private {
  offsets : int array;  (** length [n + 1]; block of [u] is
                            [offsets.(u) .. offsets.(u+1) - 1] *)
  targets : int array;  (** length [E], insertion order per source *)
  labels : 'lab array;  (** length [E], parallel to [targets] *)
}

val of_edges : n:int -> (int * 'lab * int) list -> 'lab t
(** [of_edges ~n edges] is the graph on vertices [0 .. n-1] with one
    edge [u -> v] labelled [lab] per [(u, lab, v)] of [edges]
    (duplicates kept, self-loops allowed); each source's successors are
    in list order.  Endpoints must lie in [0, n).  O(V + E). *)

val make :
  offsets:int array -> targets:int array -> labels:'lab array -> 'lab t
(** Direct construction from pre-built arrays (callers that count
    out-degrees and fill blocks themselves, e.g. the SI composition).
    Validates the CSR shape in O(V): [offsets] runs monotonically from
    [0] to the edge count, [targets]/[labels] have that length.
    @raise Invalid_argument otherwise. *)

val of_edge_streams :
  ?pool:Pool.t ->
  n:int ->
  streams:(int array * int array * int array * int) array ->
  decode:(int -> int -> 'lab) ->
  unit ->
  'lab t
(** [of_edge_streams ~n ~streams ~decode ()] merges several edge
    streams — each a [(src, dst, lab, len)] quadruple of parallel
    arrays with [len] valid entries — into one CSR.  The successor
    block of every source [u] lists stream 0's edges out of [u] first,
    then stream 1's, and so on, each in stream order; the result is a
    function of the stream decomposition only, so sharded producers
    get bit-identical graphs regardless of how many domains ran.
    [decode si packed] expands an int-packed label of stream [si]; it
    may be called concurrently for {e distinct} stream indices (keep
    any memo caches per-stream).  With [?pool], the counting and fill
    passes run streams concurrently and the cursor conversion runs on
    vertex slices; all writes are index-disjoint.  O(V·S + E). *)

val n : _ t -> int
val num_edges : _ t -> int
val out_degree : _ t -> int -> int

val iter_succ : 'lab t -> int -> (int -> 'lab -> unit) -> unit
(** [iter_succ g u f] calls [f v lab] for every edge [u -> v], in
    the order given at construction.  Allocation-free. *)

val succ : 'lab t -> int -> (int * 'lab) list
(** Materialized successor list (for tests/debugging). *)

val mem_edge : _ t -> int -> int -> bool
