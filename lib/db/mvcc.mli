(** The multi-version store: per-object version chains ordered by commit
    time, with two logical replicas whose visibility can lag (the
    [Fault.Long_fork] mechanism).  On a healthy engine both replicas see a
    version the instant it commits. *)

type version = {
  value : Op.value;
  writer : Txn.id;
  commit_ts : int;
  visible : int array;  (** per replica: earliest time the version is seen *)
}

val num_replicas : int  (** 2 *)

type t

val create : num_keys:int -> t
(** Every key starts with the initial version (value 0, writer 0,
    commit_ts [min_int], immediately visible everywhere). *)

val install :
  t -> key:Op.key -> value:Op.value -> writer:Txn.id -> commit_ts:int ->
  lag:(int * int) option -> unit
(** [lag = Some (replica, until)] delays visibility on [replica] until
    logical time [until]. *)

val visible_at : t -> key:Op.key -> replica:int -> ts:int -> version
(** The newest version with [commit_ts <= ts] and [visible.(replica) <= ts]
    — what a snapshot taken at [ts] on [replica] reads. *)

val predecessor : t -> key:Op.key -> version -> version option
(** The version immediately before [v] in commit order (for stale-read
    fault injection). *)

val newer_than : t -> key:Op.key -> ts:int -> bool
(** Does any version of [key] have [commit_ts > ts]?  The
    first-committer-wins test. *)

val newest_writer_after : t -> key:Op.key -> ts:int -> Txn.id list
(** Writers of versions with [commit_ts > ts] (for SSI out-edge
    bookkeeping). *)
