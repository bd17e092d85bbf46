(** VL-LWT: linear-time linearizability verification for
    lightweight-transaction histories (paper Algorithm 2, Section IV-E).

    Per object (linearizability is local), the checker:
    + requires exactly one insert-if-not-exists;
    + builds the unique version chain: each read&write must consume the
      value written by its predecessor (found in O(1) via a hash table on
      expected values);
    + checks the real-time requirement along the chain — no transaction may
      start after a later chain member finishes.

    As an extension beyond the paper's pseudocode, plain reads (failed
    CAS operations) are supported: a read of the chain's [i]-th value must
    be placeable between the [i]-th and [i+1]-th writers, which a greedy
    earliest-point / earliest-deadline-first sweep decides exactly.  On
    read-free histories this degenerates to the paper's reverse-order
    scan. *)

type reason =
  | No_insert of Op.key
  | Multiple_inserts of { key : Op.key; count : int }
  | No_successor of { key : Op.key; value : Op.value; remaining : int }
      (** chain construction stuck: [remaining] R&W events cannot extend
          the chain at [value] *)
  | Duplicate_successor of {
      key : Op.key;
      value : Op.value;
      event1 : int;
      event2 : int;
    }  (** two successful CAS consumed the same value *)
  | Stale_read of { key : Op.key; event : int; value : Op.value }
      (** a read observed a value never current on the chain *)
  | Real_time_violation of { key : Op.key; event : int }
      (** the event cannot be placed consistently with real time *)

val pp_reason : Format.formatter -> reason -> unit

val check : Lwt.t -> (unit, reason) result
(** All keys; first failing key in key order.  O(n) expected. *)

val chain : Lwt.t -> Op.key -> (Lwt.event list, reason) result
(** The version chain (insert first), for tests and reporting. *)
