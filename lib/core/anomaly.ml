type kind =
  | Thin_air_read
  | Aborted_read
  | Future_read
  | Not_my_last_write
  | Not_my_own_write
  | Intermediate_read
  | Non_repeatable_reads
  | Session_guarantee_violation
  | Non_monotonic_read
  | Fractured_read
  | Causality_violation
  | Long_fork
  | Lost_update
  | Write_skew

let all =
  [
    Thin_air_read;
    Aborted_read;
    Future_read;
    Not_my_last_write;
    Not_my_own_write;
    Intermediate_read;
    Non_repeatable_reads;
    Session_guarantee_violation;
    Non_monotonic_read;
    Fractured_read;
    Causality_violation;
    Long_fork;
    Lost_update;
    Write_skew;
  ]

let name = function
  | Thin_air_read -> "ThinAirRead"
  | Aborted_read -> "AbortedRead"
  | Future_read -> "FutureRead"
  | Not_my_last_write -> "NotMyLastWrite"
  | Not_my_own_write -> "NotMyOwnWrite"
  | Intermediate_read -> "IntermediateRead"
  | Non_repeatable_reads -> "NonRepeatableReads"
  | Session_guarantee_violation -> "SessionGuaranteeViolation"
  | Non_monotonic_read -> "NonMonotonicRead"
  | Fractured_read -> "FracturedRead"
  | Causality_violation -> "CausalityViolation"
  | Long_fork -> "LongFork"
  | Lost_update -> "LostUpdate"
  | Write_skew -> "WriteSkew"

let description = function
  | Thin_air_read -> "a transaction reads a value out of thin air"
  | Aborted_read -> "a transaction reads a value from an aborted transaction"
  | Future_read ->
      "a transaction reads from a write that occurs later in the same \
       transaction"
  | Not_my_last_write ->
      "a transaction reads from its own but not the last write on the object"
  | Not_my_own_write ->
      "a transaction does not read from its own write on the object"
  | Intermediate_read ->
      "a transaction reads a value later overwritten by the writing \
       transaction"
  | Non_repeatable_reads ->
      "a transaction reads the same object twice and receives different \
       values"
  | Session_guarantee_violation ->
      "a transaction misses the effect of a preceding transaction in its \
       session"
  | Non_monotonic_read ->
      "T3 reads y from T2 and then reads x from T1, but T2 overwrote T1 on x"
  | Fractured_read -> "T1 updates both x and y, but T2 observes only x"
  | Causality_violation ->
      "T3 sees the effect of T2 on y but misses the effect of T1, seen by T2"
  | Long_fork ->
      "two observers see the two concurrent writes in opposite orders"
  | Lost_update ->
      "two concurrent read-modify-writes of the same object both commit"
  | Write_skew ->
      "two concurrent transactions read both objects and write one each"

(* Witness histories.  Keys: x = 0, y = 1.  All transactions are pairwise
   concurrent by default (`Overlap), so RT adds nothing to SO.  The
   initial transaction writes 0 to every key. *)
let history kind =
  let open Builder in
  match kind with
  | Thin_air_read ->
      history ~keys:1 ~sessions:1 [ txn ~session:1 [ r 0 42 ] ]
  | Aborted_read ->
      history ~keys:1 ~sessions:2
        [
          txn ~session:1 ~status:Txn.Aborted [ r 0 0; w 0 1 ];
          txn ~session:2 [ r 0 1 ];
        ]
  | Future_read ->
      history ~keys:1 ~sessions:1 [ txn ~session:1 [ r 0 1; w 0 1 ] ]
  | Not_my_last_write ->
      history ~keys:1 ~sessions:1
        [ txn ~session:1 [ r 0 0; w 0 1; w 0 2; r 0 1 ] ]
  | Not_my_own_write ->
      history ~keys:1 ~sessions:1 [ txn ~session:1 [ r 0 0; w 0 1; r 0 0 ] ]
  | Intermediate_read ->
      history ~keys:1 ~sessions:2
        [
          txn ~session:1 [ r 0 0; w 0 1; w 0 2 ];
          txn ~session:2 [ r 0 1 ];
        ]
  | Non_repeatable_reads ->
      history ~keys:1 ~sessions:2
        [
          txn ~session:1 [ r 0 0; w 0 1 ];
          txn ~session:2 [ r 0 0; r 0 1 ];
        ]
  | Session_guarantee_violation ->
      history ~keys:1 ~sessions:1
        [
          txn ~session:1 [ r 0 0; w 0 1 ];
          txn ~session:1 [ r 0 0 ];
        ]
  | Non_monotonic_read ->
      history ~keys:2 ~sessions:3
        [
          txn ~session:1 [ r 0 0; w 0 1 ];
          txn ~session:2 [ r 0 1; w 0 2; r 1 0; w 1 3 ];
          txn ~session:3 [ r 1 3; r 0 1 ];
        ]
  | Fractured_read ->
      history ~keys:2 ~sessions:2
        [
          txn ~session:1 [ r 0 0; w 0 1; r 1 0; w 1 2 ];
          txn ~session:2 [ r 0 1; r 1 0 ];
        ]
  | Causality_violation ->
      history ~keys:2 ~sessions:3
        [
          txn ~session:1 [ r 0 0; w 0 1 ];
          txn ~session:2 [ r 0 1; r 1 0; w 1 2 ];
          txn ~session:3 [ r 1 2; r 0 0 ];
        ]
  | Long_fork ->
      history ~keys:2 ~sessions:4
        [
          txn ~session:1 [ r 0 0; w 0 1 ];
          txn ~session:2 [ r 1 0; w 1 2 ];
          txn ~session:3 [ r 0 1; r 1 0 ];
          txn ~session:4 [ r 0 0; r 1 2 ];
        ]
  | Lost_update ->
      history ~keys:1 ~sessions:2
        [
          txn ~session:1 [ r 0 0; w 0 1 ];
          txn ~session:2 [ r 0 0; w 0 2 ];
        ]
  | Write_skew ->
      history ~keys:2 ~sessions:2
        [
          txn ~session:1 [ r 0 0; r 1 0; w 0 1 ];
          txn ~session:2 [ r 0 0; r 1 0; w 1 2 ];
        ]

let intra = function
  | Thin_air_read | Aborted_read | Future_read | Not_my_last_write
  | Not_my_own_write | Intermediate_read | Non_repeatable_reads ->
      true
  | Session_guarantee_violation | Non_monotonic_read | Fractured_read
  | Causality_violation | Long_fork | Lost_update | Write_skew ->
      false

(* Every witness violates its level and everything stronger; WRITESKEW is
   the only one SI admits. *)
let satisfies kind (level : Checker.level) =
  match (kind, level) with
  | Write_skew, Checker.SI -> true
  | _, (Checker.SSER | Checker.SER | Checker.SI) -> false
