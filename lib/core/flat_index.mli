(** Allocation-light lookup tables for dependency inference.

    An open-addressing hash map from native [int] keys to non-negative
    [int] values: flat parallel arrays, linear probing, load factor kept
    at or below 1/2.  Lookups and inserts allocate nothing (inserts
    amortize array doubling), where the seed's tuple-keyed [Hashtbl]
    boxed a [(key * value)] block per insert and hashed it per probe.

    The {!Writers} submodule layers the paper's writer-resolution tables
    (final / intermediate / aborted, Section IV-A) on top for the
    streaming {!Online} checker, which inserts as the stream arrives,
    packing each [(key, value)] pair into a single int — sound because
    mini-transaction histories assign unique values, so the packing is
    injective whenever it cannot overflow, and the rare unpackable pair
    falls back to a tuple-keyed spill table.  The batch checker resolves
    through {!Index}'s key-major write table instead. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is a size hint (rounded up to a power of two, min 16). *)

val length : t -> int

val set : t -> int -> int -> unit
(** [set t k v] binds [k] to [v], replacing any previous binding.
    @raise Invalid_argument if [v < 0] (reserved for "absent"). *)

val get : t -> int -> int
(** [get t k] is the value bound to [k], or [-1] if unbound. *)

val mem : t -> int -> bool

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] applies [f key value] to every live binding, in slot
    order (an implementation order — callers must not depend on it
    beyond determinism for a fixed insertion history). *)

val words : t -> int
(** Rough size of the backing store in words, O(1). *)

val filtered : t -> (int -> bool) -> t
(** [filtered t pred] is a fresh map holding exactly the bindings whose
    key [pred] accepts, sized for the survivors. *)

val encode : Buffer.t -> t -> unit
(** Snapshot serialization: the live pairs.  Probe layout is not
    preserved (it is unobservable through this interface). *)

val decode : Binio_core.reader -> t
(** Inverse of {!encode}.
    @raise Binio_core.Decode_error on truncated or malformed input. *)

val pack_pair : num_keys:int -> int -> int -> int
(** [pack_pair ~num_keys k v] is the shared injective packing
    [v * num_keys + k] of a [(key, value)] pair into one int, or [-1]
    when the pair has no collision-free packing ([k] outside
    [0, num_keys), [v] negative, or overflow) — callers fall back to a
    tuple-keyed spill for those. *)

(** Final / intermediate / aborted writer resolution over packed pairs —
    the backing store of the streaming {!Online} checker ({!Index} only
    shares its [who] type). *)
module Writers : sig
  type who =
    | Final of Txn.id
    | Intermediate of Txn.id
    | Aborted of Txn.id
    | Nobody

  type t

  val create : num_keys:int -> expected:int -> t
  (** [num_keys] bounds the key space (packing stride); [expected] is a
      hint for the number of final writes. *)

  val set_final : t -> Op.key -> Op.value -> Txn.id -> unit
  val set_intermediate : t -> Op.key -> Op.value -> Txn.id -> unit
  val set_aborted : t -> Op.key -> Op.value -> Txn.id -> unit

  val resolve : t -> Op.key -> Op.value -> who
  (** Who produced value [v] of object [k]?  Checks final writers first,
      then intermediate, then aborted — the resolution order of paper
      Section IV-A. *)

  val keep : t -> (int -> bool) -> t
  (** [keep t pred] rebuilds all three tiers retaining only the packed
      pairs [pred] accepts; the spill table (unpackable pairs) is kept
      verbatim — it is never pruned. *)

  val iter_final : t -> (Txn.id -> unit) -> unit
  (** Iterate the ids of every final-writer binding (packed + spill). *)

  val words : t -> int

  val encode : Buffer.t -> t -> unit
  val decode : Binio_core.reader -> t
end

(** [(key, value)] pair -> int list, the reader/overwriter tiers of the
    streaming {!Online} checker: lists are cons chains threaded through
    two flat int vectors (no boxed cells, no tuple keys), a push is O(1)
    and iteration is newest-first — the seed's cons order. *)
module Multi : sig
  type t

  val create : num_keys:int -> unit -> t

  val push : t -> Op.key -> Op.value -> int -> unit
  (** [push t k v x] prepends [x] to the list of [(k, v)]. *)

  val iter : t -> Op.key -> Op.value -> (int -> unit) -> unit
  (** Iterate the list of [(k, v)], newest push first. *)

  val keep : t -> (int -> bool) -> t
  (** [keep t pred] rebuilds the table retaining only the chains whose
      packed pair [pred] accepts, preserving each survivor's newest-first
      iteration order; spill lists are kept verbatim. *)

  val iter_members : t -> (int -> unit) -> unit
  (** Iterate every element of every chain (pool + spill), in pool
      order. *)

  val words : t -> int

  val encode : Buffer.t -> t -> unit
  (** The cons pool is written verbatim, so a decoded table iterates in
      the identical (newest-first) order. *)

  val decode : Binio_core.reader -> t
end

(** [(key, value)] pair -> [(int, int)], the extender table of the SI
    divergence screen.  The first component doubles as the absence
    sentinel and must be [>= 0]; the second is unrestricted. *)
module Pairs : sig
  type t

  val create : num_keys:int -> unit -> t

  val set : t -> Op.key -> Op.value -> int -> int -> unit
  (** Bind [(k, v)] to the pair, replacing any previous binding.
      @raise Invalid_argument if the first component is negative. *)

  val first : t -> Op.key -> Op.value -> int
  (** First component of the binding, or [-1] if unbound. *)

  val second : t -> Op.key -> Op.value -> int
  (** Second component; meaningful only when {!first} returned [>= 0]. *)

  val keep : t -> (int -> bool) -> t
  (** [keep t pred] rebuilds the table retaining only the packed pairs
      [pred] accepts; spill entries are kept verbatim. *)

  val words : t -> int

  val encode : Buffer.t -> t -> unit
  val decode : Binio_core.reader -> t
end
