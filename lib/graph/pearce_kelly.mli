(** Incremental topological order maintenance (Pearce & Kelly, 2006).

    Supports online edge insertion into a DAG in amortized sub-linear time,
    reporting a cycle witness when an insertion would create one.  This is
    the engine behind the SAT acyclicity theory (our MonoSAT-lite) and the
    streaming {!Online} checker.

    The structure is flat ints throughout: {!Int_vec} successor and
    predecessor vectors per vertex (a successor entry carries its edge's
    label) and epoch-stamped scratch arrays reused across calls — an
    accepted insertion that needs no reordering allocates nothing, and a
    reordering insertion allocates only amortized vector growth.  There
    is no edge-set table: an edge is found by scanning the shorter of
    its source's successors and its target's predecessors, so lookups
    cost the smaller endpoint degree.

    Vertex ids are stable for the structure's whole life.  A caller that
    retires vertices {!free}s them in one batch, by their edges, and may
    later reuse an id after giving it a new top position with {!fresh}.
    Positions ({!order_index}) are distinct but not dense. *)

type t

val create : int -> t
(** [create n]: empty DAG on [0 .. n-1], initial order is the identity. *)

val n : t -> int
(** Vertex capacity: ids [0 .. n t - 1] are valid. *)

val ensure : t -> int -> unit
(** [ensure t n] grows the vertex set in place to at least [n] (no-op if
    already that large; otherwise at least doubling).  New vertices are
    isolated and take positions above every existing one, so existing
    edges and the maintained order are untouched — callers need not
    replay anything after a grow. *)

val num_edges : t -> int
(** Distinct edges currently in the structure (duplicates are never
    double-counted; {!remove_edge} and {!free} decrement). *)

val add_edge : t -> int -> int -> (unit, int list) result
(** [add_edge t u v] inserts [u -> v] with label 0.  [Error path] means
    the edge closes a cycle; [path] is a vertex path [v; ...; u] along
    existing edges, so the full cycle is [u -> v -> ... -> u].  The
    structure is unchanged on error.  Self-edges always fail with
    [Error [u]].  Inserting an edge already present is [Ok ()] and
    changes nothing, its label included. *)

val add_labelled_edge : t -> int -> int -> int -> (unit, int list) result
(** [add_labelled_edge t u v lab] is {!add_edge} recording the label
    [lab] with the edge.
    @raise Invalid_argument unless [0 <= lab < 2{^31}]. *)

val mem_edge : t -> int -> int -> bool
(** O(min (out-degree of [u]) (in-degree of [v])). *)

val label : t -> int -> int -> int
(** The label recorded with edge [u -> v], or [-1] if the edge is
    absent.  O(out-degree of [u]). *)

val remove_edge : t -> int -> int -> unit
(** Remove an edge if present.  The maintained order stays valid: deleting
    edges never invalidates a topological order, so removal is O(degree) —
    which is what makes the structure usable under SAT backtracking. *)

val order_index : t -> int -> int
(** Current position of a vertex in the maintained order.  Positions are
    distinct but not dense. *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** Iterate the successors of a vertex, in recorded (push) order. *)

val free : t -> int array -> unit
(** [free t vs] isolates every listed vertex (each listed once): each
    edge with a listed endpoint leaves the kept endpoint's adjacency
    vector, and each listed vertex drops its own
    vectors (a vertex holds none until its next edge).  Cost: the
    degrees of the listed vertices plus, once each, the degrees of their
    kept neighbours, whose vectors keep their relative order.  The order
    stays valid; freed vertices keep their (now unconstrained) positions
    until {!fresh}. *)

val fresh : t -> int -> unit
(** [fresh t v] moves the isolated vertex [v] to a position above every
    other — what a reused id needs, since its first edges come in from
    vertices allocated after it was freed.
    @raise Invalid_argument if [v] has edges. *)

val words : t -> int
(** Rough size of the edges in words: a successor and a predecessor
    entry per edge, plus the vectors' doubling slack.  O(1), and it
    falls when edges are removed or freed.  Per-vertex storage is the
    caller's to count ({!vertex_words} a vertex), since only the caller
    knows which ids are in use. *)

val vertex_words : int
(** Rough words per vertex with edges: its position, mark and parent,
    its two adjacency-vector slots, and both vectors' headers and
    initial capacity. *)

val check_invariant : t -> bool
(** For tests and {!decode}: every recorded edge goes forward in the
    maintained order, no edge is recorded twice, positions are distinct
    and below the next fresh one, and the successor vectors,
    predecessor vectors and edge count agree.  O(edges) with a
    temporary table. *)

val encode : Buffer.t -> t -> unit
(** Snapshot serialization: the successor/predecessor vectors (labels
    included) and the positions are written verbatim, so the decoded
    structure discovers (and therefore renders) cycle witnesses
    byte-identically to the source.  Derivable state (edge count, DFS
    scratch) is not written. *)

val decode : Binio_core.reader -> t
(** Inverse of {!encode}; validates {!check_invariant}.
    @raise Binio_core.Decode_error on truncated, malformed or
    invariant-violating input. *)
