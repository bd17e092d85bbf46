(** Execution histories (paper Definition 2).

    A history is a set of transactions grouped into sessions, together with
    the session order SO and the real-time order RT.  SO is generated by the
    per-session transaction sequences plus the initial transaction, which
    precedes everything; RT is derived from logical start/finish times:
    [T1 -RT-> T2] iff [T1.commit_ts < T2.start_ts].

    Aborted transactions are retained (they never participate in
    dependencies, but their writes are needed to diagnose ABORTEDREAD). *)

type t = private {
  txns : Txn.t array;  (** indexed by transaction id; id 0 is the initial txn *)
  num_sessions : int;  (** client sessions are numbered [1 .. num_sessions] *)
  num_keys : int;  (** keys are [0 .. num_keys - 1] *)
}

val init_id : Txn.id
(** 0: the initial transaction installing value 0 for every object. *)

val init_txn : num_keys:int -> Txn.t

val make : num_keys:int -> num_sessions:int -> Txn.t list -> t
(** [make ~num_keys ~num_sessions txns] prepends the initial transaction
    and checks basic well-formedness: ids are consecutive and equal to
    positions, sessions within range, keys within range.
    @raise Invalid_argument otherwise. *)

val of_array : ?pool:Pool.t -> num_keys:int -> num_sessions:int -> Txn.t array -> t
(** Like {!make}, but takes ownership of a pre-built array whose
    position 0 must already hold the initial transaction — the parallel
    binary loader decodes straight into such an array.  With [pool] the
    per-transaction validation runs on slices.
    @raise Invalid_argument on the same conditions as {!make}. *)

val txn : t -> Txn.id -> Txn.t
val num_txns : t -> int

val committed : t -> Txn.t list
(** All committed transactions including the initial one, in id order. *)

val committed_count : t -> int

val session_chain : t -> int -> Txn.id list
(** Committed transactions of a session, in session order. *)

val so_pairs : t -> (Txn.id * Txn.id) list
(** Generator edges of SO: consecutive committed txns within each session,
    plus initial → first committed txn of each session.  The transitive
    closure of these pairs is the full session order. *)

val iter_so_pairs : t -> (Txn.id -> Txn.id -> unit) -> unit
(** [iter_so_pairs h f] calls [f a b] for every generator pair of SO —
    the same pair multiset as {!so_pairs} (in id rather than per-session
    order), without materializing the list.  One pass over the history. *)

val rt_before : t -> Txn.id -> Txn.id -> bool
(** [rt_before h t1 t2] iff [t1] finishes before [t2] starts.  Only
    meaningful for committed transactions. *)

val unique_values : ?pool:Pool.t -> t -> (unit, string) result
(** Checks that every write on the same object assigns a distinct value
    (across committed *and* aborted transactions, as clients generate
    values); a transaction writing one value twice is not a duplicate.
    One serial pass flags the keys whose values do not strictly
    increase in scan order; when there is none (every monotone value
    generator) the check ends there.  Otherwise only the flagged keys'
    writes are sorted by (value, scan position), one key at a time, on
    [pool]'s slices when given.  The reported duplicate is the first in
    scan order, with the first writer of its value, for every pool. *)

val all_mini : t -> (unit, string) result
(** Checks that every non-initial transaction is a mini-transaction
    (Definition 8). *)

val validate : t -> (unit, string) result
(** [unique_values] and [all_mini] combined: Definition 9 of a
    mini-transaction history. *)

val stats : t -> string
(** One-line summary: #txns, #committed, #sessions, #keys, #ops. *)
