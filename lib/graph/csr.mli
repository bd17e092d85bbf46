(** Frozen compressed-sparse-row snapshots of {!Digraph.t}.

    A [Csr.t] packs the adjacency structure into three flat arrays —
    [offsets] (length [n + 1]), [targets] and [labels] (length [E]) —
    so the verification kernels ({!Cycle}, {!Scc}, {!Topo}) can walk
    successors by integer indexing with zero per-visit allocation and
    cache-friendly sequential access.  Successors keep the insertion
    order of the source graph, so kernels visit edges in exactly the
    order the list-based code did. *)

type 'lab t = private {
  offsets : int array;  (** length [n + 1]; block of [u] is
                            [offsets.(u) .. offsets.(u+1) - 1] *)
  targets : int array;  (** length [E], insertion order per source *)
  labels : 'lab array;  (** length [E], parallel to [targets] *)
}

val of_digraph : 'lab Digraph.t -> 'lab t
(** O(V + E) snapshot.  Later mutations of the source graph are not
    reflected. *)

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
    insertion order.  Allocation-free. *)

val succ : 'lab t -> int -> (int * 'lab) list
(** Materialized successor list (for tests/debugging). *)

val mem_edge : _ t -> int -> int -> bool
