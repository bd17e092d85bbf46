(** Plain-text serialization of histories (one transaction per line),
    so that histories can be archived, diffed, and re-checked from the
    command line:

    {v
    mtc-history v1
    keys 4
    sessions 2
    txn 1 1 C 2 3 R(x0)=0 W(x0):=101
    txn 2 2 A 2 4 R(x1)=0
    v}

    Fields of a [txn] line: id, session, status (C/A), start_ts,
    commit_ts, then the operations in program order.  The initial
    transaction is implicit and not serialized.

    Grammar: lines end in ['\n']; each line is trimmed of
    [String.trim]'s whitespace (so CRLF endings and indentation are
    fine), and blank lines and lines starting with [#] are skipped.
    Within a line, fields are separated by exactly one space.  Every
    integer is [-?[0-9]+] and must fit in a native int — no [+], [0x]
    or [_] forms.  An operation field is exactly [R(x<int>)=<int>] or
    [W(x<int>):=<int>] ({!Op.of_sub}); trailing characters such as
    [R(x0)=0junk] are an error.  A [txn] line may have no operations. *)

val to_string : History.t -> string
(** The canonical form: [of_string] of it re-serializes byte for byte. *)

val of_string : string -> (History.t, string) result
(** Total: malformed input — truncated ops, bad status, duplicate or
    out-of-order transaction ids, sessions/keys out of range, integers
    that overflow — yields [Error] naming the offending (1-based)
    physical line, never an exception.  Syntax errors anywhere take
    precedence over well-formedness errors (id order, session and key
    range), which are reported for the first offending line once the
    whole input has parsed. *)

val save : string -> History.t -> unit
(** [save path h] writes [to_string h] to [path]. *)

(** {1 Binary format}

    A compact framing of the same data for large corpora:
    ["mtcbin1\n"] magic, varint header (keys, sessions, block size),
    {!Binio.add_txn} records for ids 1..n grouped into fixed-size
    blocks, then a footer listing every block's byte offset and a
    fixed-width trailer pointing at the footer.  Loading mmaps the file
    ({!Binio.Source.map_file}) — nothing is copied into the heap before
    decoding — and, given a pool, decodes disjoint block ranges on
    separate domains. *)

module Bin_writer : sig
  type t

  val create :
    ?block_size:int -> num_keys:int -> num_sessions:int -> string -> t
  (** Streaming writer: transactions are encoded and flushed as they
      arrive, so multi-million-txn corpora never sit in RAM.
      [block_size] (default 4096) is the parallel-decode granularity.
      @raise Invalid_argument if [block_size < 1]. *)

  val add : t -> Txn.t -> unit
  (** Append the next transaction.  Ids must arrive as the dense
      sequence 1..n (the initial transaction is implicit); sessions and
      keys must be in range; the timestamp window must be well-formed
      ([start_ts <= commit_ts]).  @raise Invalid_argument otherwise. *)

  val close : t -> unit
  (** Write the footer and trailer and close the file.  Idempotent. *)
end

val save_bin : ?block_size:int -> string -> History.t -> unit

val load_bin : ?pool:Pool.t -> string -> (History.t, string) result
(** Zero-copy load: mmaps [path] and decodes block ranges concurrently
    on [pool] if given.  Total like {!of_string}: malformed input —
    bad magic, truncated records, id gaps, out-of-range sessions or
    keys — yields [Error], never an exception. *)

type format = Auto | Text | Bin

val format_of_string : string -> format option

val load :
  ?format:format -> ?pool:Pool.t -> string -> (History.t, string) result
(** [load path] reads either format; [Auto] (the default) sniffs the
    8-byte magic. *)
