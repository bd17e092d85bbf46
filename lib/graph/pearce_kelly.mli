(** Incremental topological order maintenance (Pearce & Kelly, 2006).

    Supports online edge insertion into a DAG in amortized sub-linear time,
    reporting a cycle witness when an insertion would create one.  This is
    the engine behind the SAT acyclicity theory (our MonoSAT-lite) and the
    streaming {!Online} checker.

    The structure is flat ints throughout: {!Int_vec} successor and
    predecessor vectors per vertex, one open-addressed int set for edge
    membership, and epoch-stamped scratch arrays reused across calls — an
    accepted insertion that needs no reordering allocates nothing, and a
    reordering insertion allocates only amortized vector growth. *)

type t

val create : int -> t
(** [create n]: empty DAG on [0 .. n-1], initial order is the identity. *)

val n : t -> int

val ensure : t -> int -> unit
(** [ensure t n] grows the vertex set in place to at least [n] (no-op if
    already that large).  New vertices are isolated and take the largest
    order indices, so existing edges and the maintained order are
    untouched — callers need not replay anything after a grow. *)

val num_edges : t -> int
(** Distinct edges currently in the structure (duplicates are never
    double-counted; {!remove_edge} decrements). *)

val add_edge : t -> int -> int -> (unit, int list) result
(** [add_edge t u v] inserts [u -> v].  [Error path] means the edge closes a
    cycle; [path] is a vertex path [v; ...; u] along existing edges, so the
    full cycle is [u -> v -> ... -> u].  The structure is unchanged on
    error.  Self-edges always fail with [Error [u]].  Inserting an edge
    already present is [Ok ()] and changes nothing. *)

val mem_edge : t -> int -> int -> bool

val remove_edge : t -> int -> int -> unit
(** Remove an edge if present.  The maintained order stays valid: deleting
    edges never invalidates a topological order, so removal is O(degree) —
    which is what makes the structure usable under SAT backtracking. *)

val order_index : t -> int -> int
(** Current topological index of a vertex. *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** Iterate the successors of a vertex, in recorded (push) order. *)

val words : t -> int
(** Rough size of the structure in words: order/scratch arrays, the
    adjacency vectors' capacity and the edge set.  O(1): the adjacency
    capacity is a running total, kept by every edge insertion and
    recounted when {!compact} or {!decode} rebuilds the vectors. *)

val compact : ?on_edge:(int -> int -> int -> int -> unit) -> t -> keep:bool array -> int array
(** [compact t ~keep] drops every vertex [v] with [keep.(v) = false] and
    renumbers the survivors to a dense prefix in vertex-index order,
    returning the old-to-new remap ([-1] for dropped vertices).  The
    survivors' relative topological order is preserved exactly, so
    subsequent insertions behave (and render witnesses) identically to
    the uncompacted structure up to the renumbering.  Edges with a
    dropped endpoint are discarded; {!num_edges} reflects the surviving
    count.  [on_edge old_u old_v new_u new_v] is called once per
    surviving edge during the rebuild, letting callers migrate
    edge-keyed side tables in the same pass.

    Soundness precondition (caller's obligation): no future [add_edge]
    names a dropped vertex. *)

val check_invariant : t -> bool
(** For tests: every recorded edge goes forward in the maintained order,
    the order is a permutation, adjacency / edge set / edge count agree,
    and the running adjacency capacity behind {!words} equals a
    recount. *)

val encode : Buffer.t -> t -> unit
(** Snapshot serialization: the successor/predecessor vectors and the
    order permutation are written verbatim, so the decoded structure
    discovers (and therefore renders) cycle witnesses byte-identically
    to the source.  Derivable state (edge set, counters, DFS scratch) is
    not written. *)

val decode : Binio_core.reader -> t
(** Inverse of {!encode}; rebuilds the edge set and validates
    {!check_invariant}.
    @raise Binio_core.Decode_error on truncated, malformed or
    invariant-violating input. *)
