type status = Committed | Aborted

type aop = Append of Op.key * int | Read_list of Op.key * int list

type txn = { id : int; session : int; ops : aop list; status : status }

type t = { txns : txn list; num_keys : int; num_sessions : int }

let committed t = List.filter (fun x -> x.status = Committed) t.txns
