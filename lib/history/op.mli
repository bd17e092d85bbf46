(** Read and write operations on a key-value store (paper Section II-B).

    Keys and values are integers.  Following the common practice in
    black-box isolation checking, every write in a history is expected to
    assign a value unique for its object; [History.validate] enforces
    this. *)

type key = int
type value = int

type t =
  | Read of key * value  (** [Read (x, v)]: read [x], observed value [v] *)
  | Write of key * value  (** [Write (x, v)]: write value [v] to [x] *)

val key : t -> key
val value : t -> value
val is_read : t -> bool
val is_write : t -> bool

val pp : Format.formatter -> t -> unit
(** Prints [R(x3)=17] / [W(x3):=18]. *)

val to_string : t -> string

val of_string : string -> t option
(** Parses the [pp] format back: exactly [R(x<int>)=<int>] or
    [W(x<int>):=<int>], nothing before or after, with {!int_of_sub}'s
    integer grammar. *)

val equal : t -> t -> bool

(** {1 Text grammar}

    The scanners behind {!of_string}, shared with {!Codec}'s text format
    so both accept exactly one grammar.  They work on a substring in
    place and allocate nothing but the result. *)

exception Malformed

val int_of_sub : string -> int -> int -> int
(** [int_of_sub s lo hi] reads [s.[lo] .. s.[hi-1]] as [-?[0-9]+] — no
    [+], [0x] or [_] forms — that fits in a native int.
    @raise Malformed otherwise (overflow included). *)

val of_sub : string -> int -> int -> t
(** [of_sub s lo hi] reads the whole of [s.[lo] .. s.[hi-1]] as one
    operation.  @raise Malformed otherwise. *)
