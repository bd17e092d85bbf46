(** The INT-axiom screen (paper Section II-D, footnote of Algorithm 1).

    Before building dependencies, every checker first rules out
    THINAIRREAD, ABORTEDREAD, and the intra-transactional anomalies of
    Figure 5c–5g.  After this screen, every external read of every
    committed transaction resolves to the final write of another (or the
    initial) committed transaction — making the WR relation well-defined
    and total. *)

type kind =
  | Thin_air_read  (** value written by no transaction (Fig. 5a) *)
  | Aborted_read of Txn.id  (** value from an aborted transaction (5b) *)
  | Future_read  (** value from a later write of the same txn (5c) *)
  | Not_my_last_write
      (** own write read back, but not the latest preceding one (5d) *)
  | Not_my_own_write
      (** read after an own write returns someone else's value (5e) *)
  | Intermediate_read of Txn.id
      (** value overwritten within the writing transaction (5f) *)
  | Non_repeatable_reads
      (** two reads of the same object disagree with no write between (5g) *)

type violation = { txn : Txn.id; op_index : int; kind : kind }

val kind_name : kind -> string
val pp_violation : Format.formatter -> violation -> unit

val check : ?pool:Pool.t -> Index.t -> (unit, violation) result
(** First violation in transaction-id, then program, order.  [pool]
    screens vertex slices concurrently; the min-position tie-break keeps
    the reported violation identical to the sequential scan. *)

val check_all : Index.t -> violation list

val check_ts : ?pool:Pool.t -> Ts.t -> (unit, violation) result
(** The screen with timestamp-predicted external resolution (Vbox mode).
    [Trust] attributes every external read to its predicted writer;
    [Verify] certifies the prediction against the value actually read
    and serially re-judges every disagreement through the write table
    (classifying exactly like {!check}, so the reported violation is
    identical), filling the mismatch counters, per-key fallback flags,
    and diagnostics of the {!Ts.t}.  Call once per [Ts.t]. *)

val check_txn_with :
  resolve:(int -> Op.key -> Op.value -> Index.writer) -> Txn.t -> violation list
(** The per-transaction screen with a caller-supplied value-resolution
    oracle — used by the online checker, whose write tables grow as the
    stream arrives.  [resolve] receives the op index of the external
    read ahead of the key and value, so timestamp-screen callers can
    cache per-op predictions. *)
