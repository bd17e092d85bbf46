(** Fault-injection modes replicating the production isolation bugs that
    MTC rediscovers (paper Table II / Figures 12 and 18).  Each mode
    corrupts exactly the engine rule whose violation produced the real
    bug, with a configurable trigger probability.

    | mode | replicates | corrupted rule |
    |---|---|---|
    | [Lost_update p]       | MariaDB Galera 10.7.3 [41]  | first-committer-wins skipped |
    | [Aborted_read p]      | MongoDB 4.2.6 [42]          | aborted writes leak to readers |
    | [Causality_violation p] | Dgraph 1.1.1 [43]         | reads may use a stale version |
    | [Write_skew p]        | PostgreSQL 12.3 [44]        | SSI dangerous-structure check skipped |
    | [Long_fork p]         | PostgreSQL 11.8 [8]         | commit visibility lags on one replica |

    The [Ts_*] modes model a {e lying timestamp oracle}: the engine
    behaves correctly, but the commit timestamp it {e reports} to the
    client is wrong — skewed by a few ticks ([Ts_skew]), collapsed onto
    the start timestamp ([Ts_reorder]), or a duplicate of the previous
    report ([Ts_dup]).  Values are untainted, so trusting the
    timestamps yields wrong version orders that only verify-mode
    certification (or full MTC inference) can expose. *)

type mode =
  | No_fault
  | Lost_update of float
  | Aborted_read of float
  | Causality_violation of float
  | Write_skew of float
  | Long_fork of float
  | Ts_skew of float
  | Ts_reorder of float
  | Ts_dup of float

val name : mode -> string
val of_string : ?p:float -> string -> mode option
