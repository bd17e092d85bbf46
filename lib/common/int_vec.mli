(** Growable flat [int] array (amortized-doubling push) — the edge-stream
    buffer of the direct-to-CSR dependency builder and the adjacency /
    scratch vectors of the incremental {!Pearce_kelly} structure.  No
    per-element boxing; the only allocation is the occasional capacity
    doubling. *)

type t

val create : int -> t
(** [create capacity] with an initial capacity hint (min 4). *)

val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int

val set : t -> int -> int -> unit
(** [set t i x] overwrites slot [i]; [i] must be [< length t]. *)

val clear : t -> unit
(** Reset the length to 0 without releasing the backing array — the
    idiom for per-call scratch buffers reused across calls. *)

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] elements ([n <= length t]),
    without releasing the backing array — the tail of an in-place
    filter. *)

val pop : t -> int
(** Remove and return the last element; the vector must be non-empty. *)

val data : t -> int array
(** The backing array — valid entries are [0 .. length t - 1].  Exposed
    so counting-sort passes can index it directly; do not retain across
    further pushes (doubling replaces the array). *)

val encode : Buffer.t -> t -> unit
(** Append length + elements as varints (zigzag: [min_int] sentinels
    survive). *)

val decode : Binio_core.reader -> t
(** Inverse of {!encode}; the result's contents and order are
    bit-identical to the encoded vector.
    @raise Binio_core.Decode_error on truncated or malformed input. *)
