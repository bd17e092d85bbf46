(** A conflict-driven clause-learning SAT solver with a pluggable theory —
    our "MonoSAT-lite".

    Implements the standard machinery: two-watched-literal propagation,
    first-UIP conflict analysis with clause learning, VSIDS-style
    activities with decay, phase saving and geometric restarts.

    The theory hook is invoked on every assignment; a theory conflict is
    reported as the set of currently-true literals whose conjunction is
    inconsistent (for the acyclicity theory: the literals labelling the
    edges of a cycle), which the solver turns into a conflict clause and
    analyzes as usual.  This is exactly how the Cobra and PolySI baselines
    encode "polygraph has an acyclic compatible choice" (paper
    Section V-B). *)

type theory = {
  on_assign : Lit.t -> Lit.t list option;
      (** [Some lits] signals a theory conflict; [lits] must all be
          currently true and include the literal just assigned *)
  on_unassign : Lit.t -> unit;
      (** called in reverse assignment order during backjumping *)
}

type t

val create : ?theory:theory -> nvars:int -> unit -> t

val add_clause : t -> Lit.t list -> unit
(** Add a clause (call before {!solve}).  The empty clause makes the
    instance trivially unsatisfiable. *)

type outcome = Sat | Unsat

val solve : t -> outcome

val value : t -> Lit.var -> bool
(** Model value after [Sat].
    @raise Invalid_argument before a successful solve. *)

val num_conflicts : t -> int
val num_decisions : t -> int
