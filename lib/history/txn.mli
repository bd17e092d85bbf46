(** Transactions: a finite sequence of operations executed by one session
    (paper Definition 1), together with the client-visible outcome and the
    logical start/finish times used for the real-time order. *)

type id = int

type status = Committed | Aborted

type t = {
  id : id;  (** unique; equals the transaction's index in its history *)
  session : int;  (** issuing session, [0] is reserved for the initial txn *)
  ops : Op.t array;  (** in program order *)
  status : status;
  start_ts : int;  (** logical time at which the transaction began *)
  commit_ts : int;  (** logical time at which it finished (commit or abort) *)
}

val make :
  id:id ->
  session:int ->
  ?status:status ->
  ?start_ts:int ->
  ?commit_ts:int ->
  Op.t list ->
  t
(** Timestamps default to [id] (both), giving a sequential real-time
    order that is convenient in tests. *)

val is_committed : t -> bool

val external_reads : t -> (Op.key * Op.value) list
(** [T |- R(x,v)] of the paper: for each object [x] read before any write
    to [x] within [t], the value of the *first* such read.  Ordered by
    first occurrence. *)

val final_writes : t -> (Op.key * Op.value) list
(** [T |- W(x,v)]: the last value written by [t] to each object it writes.
    Ordered by first write occurrence. *)

val intermediate_writes : t -> (Op.key * Op.value) list
(** Writes overwritten later within the same transaction; reading one of
    these from another transaction is the INTERMEDIATEREAD anomaly
    (Adya's G1b). *)

val reads_key : t -> Op.key -> bool
(** Does [t] read [x] before writing to it? *)

val writes_key : t -> Op.key -> bool

val read_of : t -> Op.key -> Op.value option
(** External read value of [x], if any. *)

val write_of : t -> Op.key -> Op.value option
(** Final written value of [x], if any. *)

val keys : t -> Op.key list
(** All keys accessed, in first-occurrence order. *)

(** {1 Flat op-array scans}

    Allocation-free linear scans over one transaction's ops, for the hot
    paths of inference and screening: mini-transactions have at most
    four ops, so rescanning beats building per-transaction tables. *)

val is_external_read : Op.t array -> int -> Op.key -> bool
(** [is_external_read ops i k], where [ops.(i)] reads [k]: is it the
    external read of [k], i.e. does no earlier op touch [k]? *)

val writes_key_ops : Op.t array -> Op.key -> bool
(** Does any op write [k]? *)

val final_write : Op.t array -> Op.key -> int
(** Index of the last write to [k] (a backward scan), or [-1]. *)

val pp : Format.formatter -> t -> unit
