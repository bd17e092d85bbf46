(** The 14 well-documented isolation anomalies captured by
    mini-transactions (paper Figure 5 / Table I), each materialized as a
    concrete MT history, with the expected verdict per isolation level.

    These serve three purposes: documentation (the paper's claim that MTs
    are semantically rich), conformance tests for the checkers, and seeds
    for the fault-injecting database simulator. *)

type kind =
  | Thin_air_read  (** (a) value out of thin air *)
  | Aborted_read  (** (b) Adya G1a *)
  | Future_read  (** (c) reads an own later write *)
  | Not_my_last_write  (** (d) *)
  | Not_my_own_write  (** (e) *)
  | Intermediate_read  (** (f) Adya G1b *)
  | Non_repeatable_reads  (** (g) *)
  | Session_guarantee_violation  (** (h) misses own session's effect *)
  | Non_monotonic_read  (** (i) *)
  | Fractured_read  (** (j) observes half of an atomic update *)
  | Causality_violation  (** (k) *)
  | Long_fork  (** (l) two observers disagree on concurrent writes *)
  | Lost_update  (** (m) the DIVERGENCE pattern *)
  | Write_skew  (** (n) SI-legal, SER-illegal *)

val all : kind list
val name : kind -> string
val description : kind -> string

val history : kind -> History.t
(** The Figure 5 witness history (all transactions pairwise concurrent, so
    SSER and SER verdicts coincide). *)

val satisfies : kind -> Checker.level -> bool
(** Expected verdict of the witness history at each level, e.g.
    [satisfies Write_skew SI = true] but
    [satisfies Write_skew SER = false]. *)

val intra : kind -> bool
(** Is this one of the intra-transactional / INT-screen anomalies
    (Figure 5a–5g)? *)
