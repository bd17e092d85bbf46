(** Topological sorting (Kahn's algorithm). *)

val sort_csr : _ Csr.t -> int list option
(** [sort_csr g] is [Some order] (a topological order of all vertices)
    iff [g] is acyclic, [None] otherwise.  Flat int-array queue, no
    per-visit allocation; O(V + E). *)
