(** The polygraph baseline: the Cobra and PolySI checkers, one pipeline
    at two levels.

    A polygraph (Papadimitriou 1979) holds the known dependency edges of
    a history plus, for every unordered pair of writers of an object, a
    binary constraint choosing between the two possible version orders
    and the anti-dependency edges each induces.  Known edges are SO and
    WR (the latter determined by unique values); WW is entirely
    constraint-driven — unlike MTC, the baseline does not exploit the
    RMW pattern.  {!check} builds the polygraph, prunes the constraints
    that known edges already decide, and hands the rest to
    SAT-modulo-acyclicity ({!Acyclicity} over {!Solver}) on the level's
    forbidden-cycle graph ({!cycle_edges}):

    - [SER] is Cobra (Tan et al., OSDI'20), the tool the paper compares
      MTC-SER against (Figures 7 and 10): it forbids every cycle of
      dependency and anti-dependency edges.
    - [SI] is PolySI (Huang et al., VLDB'23), compared with MTC-SI
      (Figures 8 and 17): it forbids the cycles without two adjacent
      anti-dependency edges, by the same reduction to constrained
      acyclicity over a product graph.

    Sound and complete for histories with unique values: the history
    satisfies the level iff some choice per remaining constraint keeps
    the forbidden-cycle graph acyclic.  Only {!Checker.level}'s type is
    shared with MTC; nothing here runs MTC's inference or cycle search,
    so the differential tests compare two algorithms. *)

type edge_kind = Dep | Anti

type choice = (edge_kind * int * int) list
(** Edges (over dense committed-transaction vertices) installed by one
    side of a constraint. *)

type constr = {
  key : Op.key;
  w1 : int;  (** vertex of the first writer *)
  w2 : int;
  if_w1_first : choice;  (** WW(w1,w2) plus induced anti-dependencies *)
  if_w2_first : choice;
}

type t = {
  idx : Index.t;
  known : (edge_kind * int * int) list;  (** SO and WR edges *)
  constraints : constr list;
  construct_s : float;  (** wall-clock spent building *)
}

type failure =
  | Screen of Int_check.violation
  | Malformed of string
      (** a duplicate value ({!History.unique_values}' message) or a read
          with no committed final writer *)

val screen : History.t -> (Index.t, failure) result
(** The baselines' preconditions: {!History.unique_values}, then the INT
    screen (Cobra's G1 checks) on the history's index. *)

val build : History.t -> (t, failure) result
(** Runs {!screen} first, then constructs the polygraph.
    O(known edges + Σ_x |WriteTx_x|²). *)

val num_constraints : t -> int

(** {2 The level encoding} *)

val cycle_edges :
  level:Checker.level -> (int -> int -> 'e) -> (edge_kind * int * int) list ->
  'e list
(** [cycle_edges ~level edge edges] is [edges] mapped into the graph
    whose cycles [level] forbids, each edge built by [edge u v], in
    order:
    - [SER]: each edge as itself, on the [n] transaction vertices;
    - [SI]: the product on [2n] vertices, where transaction [T] becomes
      [T_d = 2T] (reached via a dependency) and [T_r = 2T + 1] (reached
      via an anti-dependency).  A dependency [T -> S] yields
      [T_d -> S_d] and [T_r -> S_d], an anti-dependency only
      [T_d -> S_r], so product cycles are exactly the cycles without
      two adjacent anti-dependencies.
    @raise Invalid_argument at [SSER]. *)

val cycle_width : level:Checker.level -> int
(** Vertices of that graph per transaction: 1 at [SER], 2 at [SI];
    vertex [v] belongs to transaction [v / cycle_width ~level].
    @raise Invalid_argument at [SSER]. *)

(** {2 Pruning} *)

type pruned = {
  fixed : (edge_kind * int * int) list;
      (** known edges plus all edges of decided constraints *)
  undecided : constr list;
  decided : int;
  contradiction : (int * int) option;
      (** writer pair ordered both ways by known edges: a violation *)
  prune_s : float;
}

val prune : level:Checker.level -> t -> pruned
(** Cobra-style constraint pruning (paper Section V-B): a constraint
    whose two writers are already ordered by known edges is decided
    without the solver, and its induced edges join the known graph,
    possibly deciding further constraints (run to fixpoint).  [SER]
    prunes over dependency and anti-dependency edges; [SI] over
    dependency edges only, since an anti-dependency path alone does not
    force a version order under SI.
    @raise Invalid_argument at [SSER]. *)

(** {2 The checker} *)

type stats = {
  constraints_total : int;
  constraints_pruned : int;
  construct_s : float;
  prune_s : float;
  encode_s : float;
  solve_s : float;
  sat_decisions : int;
  sat_conflicts : int;
}

type result = {
  ok : bool;  (** the history satisfies the level *)
  reason : string;
  stats : stats;
}

val check : level:Checker.level -> History.t -> result
(** Cobra at [SER], PolySI at [SI]; each level keeps its tool's reason
    wording.
    @raise Invalid_argument at [SSER]. *)

val total_s : stats -> float

val nonsolver_s : stats -> float
(** construction + pruning + encoding: the components the paper observes
    to dominate Cobra's runtime (Section V-D). *)
