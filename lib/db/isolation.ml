type level = Read_committed | Snapshot | Serializable | Strict_serializable

let name = function
  | Read_committed -> "read-committed"
  | Snapshot -> "snapshot"
  | Serializable -> "serializable"
  | Strict_serializable -> "strict-serializable"

let claimed_level = function
  | Read_committed | Snapshot -> Checker.SI
  | Serializable -> Checker.SER
  | Strict_serializable -> Checker.SSER
