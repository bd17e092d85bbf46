(** The simulated database engine: a black-box key-value store offering
    the four isolation levels of {!Isolation}, with optional fault
    injection ({!Fault}) replicating known production bugs.

    The engine is single-threaded and driven op-by-op by the scheduler
    ({!Scheduler} in [mtc.runner]): each call advances a logical clock,
    and the clock values double as the wall-clock timestamps from which
    the history's real-time order is derived.

    Mechanisms per level:
    - [Read_committed]: reads see the latest committed version at the time
      of the read; commits install unconditionally (lost updates and
      non-repeatable reads are possible — this level is intentionally
      weak).
    - [Snapshot]: reads from the begin-time snapshot (own writes win);
      first-committer-wins aborts on write-write conflicts.
    - [Serializable]: Snapshot plus serializable-snapshot-isolation
      bookkeeping — a transaction with both an incoming and an outgoing
      rw-antidependency to concurrent transactions (a dangerous-structure
      pivot) is aborted at commit, as is a transaction whose commit would
      complete a pivot on an already-committed neighbour.
    - [Strict_serializable]: strict two-phase locking with wound-wait
      ({!Locking}); reads/writes may block or be doomed by a wound. *)

type config = {
  level : Isolation.level;
  fault : Fault.mode;
  num_keys : int;
  seed : int;
}

type t

val create : config -> t
val config : t -> config
val now : t -> int
(** Current logical clock. *)

type handle

val begin_txn : t -> session:int -> handle
val handle_id : handle -> Txn.id
val handle_session : handle -> int
val handle_start : handle -> int
val handle_ops : handle -> Op.t list
(** Client-visible operations recorded so far, in program order. *)

type read_result =
  | Rvalue of Op.value
  | Rblocked  (** lock conflict ([Strict_serializable] only): retry later *)
  | Rdoomed  (** wounded: the client must abort *)

type write_result = Wok | Wblocked | Wdoomed

val read : t -> handle -> Op.key -> read_result
val write : t -> handle -> Op.key -> Op.value -> write_result

type abort_reason =
  | Ww_conflict  (** first-committer-wins *)
  | Dangerous_structure  (** SSI pivot *)
  | Wounded
  | User_abort

type commit_result = Committed of int  (** commit timestamp *) | Rejected of abort_reason

val commit : t -> handle -> commit_result
(** On [Rejected] the transaction is already fully aborted (locks
    released, leak fault applied); do not call {!abort} afterwards. *)

val abort : t -> handle -> unit
(** Client-initiated abort; also the required reaction to
    [Rdoomed]/[Wdoomed]. *)

type stats = {
  mutable commits : int;
  mutable aborts_ww : int;
  mutable aborts_ssi : int;
  mutable aborts_wound : int;
  mutable aborts_user : int;
}

val stats : t -> stats
val total_aborts : stats -> int
