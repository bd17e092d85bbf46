(** CRC-32 (IEEE 802.3) — the per-record checksum of the persistence
    layer.  Returned values fit in 32 bits. *)

val string : string -> int
(** CRC of a whole string. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] extends [crc] with [s.[pos .. pos+len-1]];
    [update 0 s 0 (String.length s) = string s]. *)
