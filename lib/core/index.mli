(** A shared index over a history: dense vertex numbering of committed
    transactions and one write table.  Because every write on an object
    assigns a unique value (Definition 9), the table resolves each read
    to the transaction that produced its value — the basis of the
    deterministic WR relation (paper Section IV-A).

    The write table is key-major and flat: one counting pass over every
    write of every transaction (any status) gives per-key offsets, and
    one scatter pass in scan order fills each slot with the value, the
    writer id and its tier — final or intermediate (by {!mark_finals})
    for committed transactions, aborted otherwise.  Keys whose values
    ever decrease in scan order are then sorted by value, stably, so
    equal values keep scan order; a monotone value generator leaves
    every key unsorted.  A lookup is a binary search in the key's slice:
    no hash tables, no packing of [(key, value)] pairs. *)

type table
(** The write table; reach it through {!writer_of} and the slot
    accessors. *)

type t = private {
  history : History.t;
  committed : Txn.t array;  (** committed transactions in id order *)
  vertex_of_txn : int array;  (** txn id -> dense vertex, or -1 if aborted *)
  mutable table : table option;
      (** [None] until a deferred index ({!build_deferred}) is first
          looked up *)
}

val build : ?pool:Pool.t -> History.t -> t
(** Builds the write table now.  [pool] sorts the keys whose values
    decrease; the table is identical with or without it, and concurrent
    lookups from any domain are safe. *)

val build_deferred : History.t -> t
(** Vertex numbering only: the write table is built by the first lookup
    ({!writer_of}, {!slot_of}, {!num_slots}).  The timestamp fast path
    ({!Ts}) uses this to skip the table entirely when certification
    succeeds.  The lazy build is not thread-safe: force it from serial
    code before sharing the index with pool tasks ({!Deps.build} calls
    {!num_slots} first whenever its value path can run). *)

val num_vertices : t -> int
val txn_of_vertex : t -> int -> Txn.t
val vertex : t -> Txn.id -> int
(** @raise Invalid_argument on an aborted transaction. *)

type writer =
  | Final of Txn.id
  | Intermediate of Txn.id
  | Aborted of Txn.id
  | Nobody

val tier_final : int
val tier_intermediate : int
val tier_aborted : int
(** Writer tiers in resolution order: a lower tier wins. *)

val decode_writer : int -> writer
(** Decode a write-table cell [(id lsl 2) lor tier]; a negative cell is
    [Nobody].  {!Online}'s version table stores its writers in the same
    encoding. *)

val mark_finals : final:Bytes.t -> Op.t array -> unit
(** Finality of each write, one byte per op position ['\001'] / ['\000'],
    into the caller-provided scratch (length >= the op count).  Linear
    rescan for mini-transactions, one backward keyed pass for large op
    arrays (the initial transaction) — shared by the write table and
    the timestamp-chain builder ({!Ts.build}). *)

val final_scratch : Txn.t array -> Bytes.t
(** A scratch buffer sized for the largest op array of the batch. *)

val writer_of : t -> Op.key -> Op.value -> writer
(** Who produced value [v] of object [x]?  Among the writes of [v] to
    [x]: a final write, else an intermediate one, else an aborted one —
    the resolution order of paper Section IV-A — and within a tier the
    last in scan order.  On a history with duplicate values (no
    {!History.unique_values} screen) this is exactly what three
    "last insert wins" tables answer.  [Final] writers are the only
    legitimate sources under the INT axiom + committed visibility. *)

val num_slots : t -> int
(** Number of write-table slots: one per write in the history. *)

val slot_of : t -> Op.key -> Op.value -> int
(** The slot {!writer_of} answers from, or [-1] for [Nobody].  A slot is
    a write of one transaction to one key, so a final slot stands for
    one (writer vertex, key) pair. *)

val final_vertex : t -> int -> int
(** The committed vertex of a final slot's writer; [-1] for an
    intermediate or aborted slot. *)
