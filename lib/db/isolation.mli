(** Isolation levels offered by the simulated database engine.

    These are the levels a real deployment would configure (paper
    Section V-A2 uses PostgreSQL's REPEATABLE READ for SI and
    SERIALIZABLE for SER); the engine implements each with the standard
    mechanism: read-committed visibility, snapshot isolation with
    first-committer-wins, serializable snapshot isolation (SSI), and
    strict two-phase locking for strict serializability. *)

type level =
  | Read_committed
  | Snapshot  (** MVCC snapshot + first-committer-wins *)
  | Serializable  (** SSI: Snapshot + dangerous-structure aborts *)
  | Strict_serializable  (** strict 2PL with wound-wait *)

val name : level -> string

val claimed_level : level -> Checker.level
(** The strongest checker level a correct engine at this isolation level
    must pass ([Read_committed] histories still pass the INT screen but
    none of the strong levels; we map it to SI as the level a buggy
    deployment would claim). *)
