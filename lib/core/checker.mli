(** The MTC verification algorithms: CHECKSSER, CHECKSER and CHECKSI of
    paper Algorithm 1, sound and complete for mini-transaction histories
    (Theorems 3–5), with counterexample extraction.

    All three share the same pipeline: the INT screen first (ruling out
    THINAIRREAD, ABORTEDREAD and intra-transactional anomalies), then the
    (nearly unique) dependency graph, then an acyclicity check — plus, for
    SI only, the early DIVERGENCE screen and the
    [((SO ∪ WR ∪ WW) ; RW?)] composition.

    Complexities for n transactions: SER and SI run in Θ(n); SSER in
    Θ(n log n) with the default [Rt_sweep] real-time encoding or Θ(n²)
    with [Rt_naive] (the paper's analysis). *)

type level = SSER | SER | SI

val level_name : level -> string
val level_of_string : string -> level option

type violation =
  | Intra of Int_check.violation
      (** INT-screen failure: thin-air / aborted / intra-transactional *)
  | Diverged of Divergence.instance  (** SI only: the DIVERGENCE pattern *)
  | Cyclic of (Txn.id * Deps.dep * Txn.id) list
      (** a dependency cycle forbidden at the level *)
  | Malformed of string  (** non-unique values or unresolvable reads *)

type outcome = Pass | Fail of violation

val pp_violation : Format.formatter -> violation -> unit
val pp_outcome : Format.formatter -> outcome -> unit

val check :
  ?rt_mode:Deps.rt_mode ->
  ?skew:int ->
  ?pool:Pool.t ->
  ?ts:Ts.mode ->
  level ->
  History.t ->
  outcome
(** [rt_mode] and [skew] apply to SSER only (defaults: [Rt_sweep], 0).
    A positive [skew] tolerates client clock drift: real-time edges are
    only derived from gaps larger than the skew bound (see
    {!Deps.build}).

    [pool] (default none) runs the pipeline's phases — unique-values,
    index, INT screen, divergence, sharded inference and the SI
    composition (built straight into a CSR) — across domains.
    Verdicts, counterexamples and their rendering are bit-identical for
    every pool size: inference shards by a fixed stripe count and every
    first-violation selection breaks ties by scan position.

    [ts] (default [Ts.Ignore]) selects the timestamp mode (Vbox fast
    path, ROADMAP item 2): [Verify] predicts writers from commit
    timestamps, certifies every prediction against the value read and
    falls back per key on mismatch — same outcome and rendering as
    [Ignore], usually faster; [Trust] skips certification and the
    duplicate-value screen entirely (fastest, but a lying oracle can
    change the verdict). *)

val check_report :
  ?rt_mode:Deps.rt_mode ->
  ?skew:int ->
  ?pool:Pool.t ->
  ?ts:Ts.mode ->
  level ->
  History.t ->
  outcome * Ts.t option
(** Like {!check}, additionally returning the timestamp state when a
    fast-path mode ran — {!Ts.render_report} on it describes any
    certification mismatches (evidence of a lying timestamp oracle,
    whether or not they changed the verdict).  [None] in [Ignore] mode
    or when the [Verify] duplicate screen failed before chains built. *)

val check_sser : ?rt_mode:Deps.rt_mode -> ?skew:int -> History.t -> outcome
val check_ser : History.t -> outcome
val check_si : History.t -> outcome

val passes : outcome -> bool

val ce_position : violation -> int option
(** Position (transaction id) of the first mini-transaction involved in
    the counterexample — the "CE position" column of paper Table II.
    [None] for [Malformed]. *)
