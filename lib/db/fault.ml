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

let name = function
  | No_fault -> "none"
  | Lost_update _ -> "lost-update"
  | Aborted_read _ -> "aborted-read"
  | Causality_violation _ -> "causality-violation"
  | Write_skew _ -> "write-skew"
  | Long_fork _ -> "long-fork"
  | Ts_skew _ -> "ts-skew"
  | Ts_reorder _ -> "ts-reorder"
  | Ts_dup _ -> "ts-dup"

let all_named =
  [
    ("lost-update", fun p -> Lost_update p);
    ("aborted-read", fun p -> Aborted_read p);
    ("causality-violation", fun p -> Causality_violation p);
    ("write-skew", fun p -> Write_skew p);
    ("long-fork", fun p -> Long_fork p);
    ("ts-skew", fun p -> Ts_skew p);
    ("ts-reorder", fun p -> Ts_reorder p);
    ("ts-dup", fun p -> Ts_dup p);
  ]

let of_string ?(p = 0.2) s =
  if s = "none" then Some No_fault
  else Option.map (fun mk -> mk p) (List.assoc_opt s all_named)
