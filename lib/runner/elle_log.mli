(** Client-level logs for list-append workloads — what the Elle baseline
    consumes (paper Section V-F2).  Unlike the register history, reads
    observe whole lists; appends record the single appended element. *)

type status = Committed | Aborted

type aop = Append of Op.key * int | Read_list of Op.key * int list

type txn = { id : int; session : int; ops : aop list; status : status }

type t = { txns : txn list; num_keys : int; num_sessions : int }

val committed : t -> txn list
