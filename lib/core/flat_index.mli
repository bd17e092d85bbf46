(** Allocation-light lookup tables for dependency inference.

    An open-addressing hash map from native [int] keys to non-negative
    [int] values: flat parallel arrays, linear probing, load factor kept
    at or below 1/2.  Lookups and inserts allocate nothing (inserts
    amortize array doubling), where the seed's tuple-keyed [Hashtbl]
    boxed a [(key * value)] block per insert and hashed it per probe.

    {!pack_pair} folds a [(key, value)] pair into one int key — sound
    because mini-transaction histories assign unique values, so the
    packing is injective whenever it cannot overflow.  {!Online}'s
    version table and {!Divergence}'s first-reader map index packed
    pairs this way, each with its own spill for the rare pair that does
    not pack.  The batch checker resolves writers through {!Index}'s
    key-major write table instead. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is a size hint (rounded up to a power of two, min 16). *)

val length : t -> int

val set : t -> int -> int -> unit
(** [set t k v] binds [k] to [v], replacing any previous binding.
    @raise Invalid_argument if [v < 0] (reserved for "absent"). *)

val remove : t -> int -> unit
(** [remove t k] unbinds [k] (no-op if unbound), by backward-shift
    deletion: no tombstones, so lookups stay as short as in a table that
    never held [k]. *)

val get : t -> int -> int
(** [get t k] is the value bound to [k], or [-1] if unbound. *)

val mem : t -> int -> bool

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] applies [f key value] to every live binding, in slot
    order (an implementation order — callers must not depend on it
    beyond determinism for a fixed insertion history). *)

val words : t -> int
(** Rough size in words of the live bindings (a key and a value slot
    each, doubled for the ½ load bound, plus a header), O(1).  It counts bindings, not capacity,
    so it falls with {!remove}. *)

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
