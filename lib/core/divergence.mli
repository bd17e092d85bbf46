(** The DIVERGENCE pattern (paper Definition 10 and Figure 3): two
    transactions read the same value of an object from the same writer and
    then both write (different, by unique values) values to it.  Any history
    containing this pattern violates SI (Lemma 1) — CHECKSI screens for it
    before building the dependency graph. *)

type instance = {
  key : Op.key;
  writer : Txn.id;  (** the transaction both readers read from *)
  reader1 : Txn.id * Op.value;  (** first diverging reader and its write *)
  reader2 : Txn.id * Op.value;
}

val pp_instance : Format.formatter -> instance -> unit

val find : ?pool:Pool.t -> Index.t -> instance option
(** First instance found, scanning committed transactions in id order:
    one pass over flat op arrays into an int-packed
    [(key, read value) -> first extender] map.  With [pool], slices of
    key stripes scan concurrently (a diverging pair lives on one key),
    one pass per slice, and a min-(position, op index) reduction keeps
    the reported instance identical to the unsliced scan. *)

val find_all : Index.t -> instance list
(** Every diverging pair, in scan order, from the same pass (an object
    read by [k] diverging writers yields [k-1] instances against the
    first one). *)
