(** Versioned per-shard snapshots of live checker sessions: the direct
    {!Online.encode} serialization of each session's flat structures (no
    history replay on restore), CRC-protected, written atomically
    (tmp + fsync + rename + directory fsync).

    A poisoned session is stored as its rendered counterexample instead
    of its graph — that text is the only thing it can ever produce
    again, and storing it verbatim is what makes post-restore renderings
    byte-identical by construction. *)

type state =
  | Live of Online.t  (** its settings travel inside {!Online.encode} *)
  | Poisoned of {
      settings : Online.settings;
      anomaly : string option;
      rendered : string;
    }

type entry = { sid : int; last_seq : int; state : state }

val settings : state -> Online.settings
(** The session's settings, wherever its state keeps them. *)

type info = {
  i_shard : int;
  i_nshards : int;
  i_gen : int;
  i_next_sid : int;  (** server sid allocator floor at checkpoint time *)
  i_entries : entry list;
}

val write :
  path:string ->
  shard:int ->
  nshards:int ->
  gen:int ->
  next_sid:int ->
  entry list ->
  unit
(** Atomic snapshot write; after return the file is durable (or the old
    file is intact).
    @raise Invalid_argument if any [Live] entry is poisoned
    ({!Online.encode}'s contract — render it to [Poisoned] first).
    @raise Unix.Unix_error on I/O failure. *)

val read : string -> (info, string) result
(** Total: bad magic, CRC mismatch, truncation, or a version this build
    does not understand all come back as [Error]. *)
