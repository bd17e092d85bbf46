(** Lightweight-transaction (LWT) histories (paper Sections II-F, IV-E).

    Each event is a single atomic operation on one object, with wall-clock
    (here: logical) start and finish times:
    - [Insert]: a successful insert-if-not-exists — equivalent to a plain
      write installing the object's initial value;
    - [Rw]: a successful read&write / Compare-And-Set — reads [expected]
      and writes [new_value];
    - [Read]: a plain read (e.g. a failed CAS), observing [value].

    LWT histories carry no initial transaction; each object's value is
    installed by exactly one [Insert].  On such histories SSER degenerates
    to linearizability. *)

type op =
  | Insert of { key : Op.key; value : Op.value }
  | Rw of { key : Op.key; expected : Op.value; new_value : Op.value }
  | Read of { key : Op.key; value : Op.value }

type event = { id : int; session : int; op : op; start : int; finish : int }

type t = { events : event array; num_keys : int; num_sessions : int }

val make : num_keys:int -> num_sessions:int -> event list -> t
(** Sorts nothing; event ids must be distinct.
    @raise Invalid_argument on duplicate ids or [finish < start]. *)

val key_of_event : event -> Op.key

val restrict : t -> Op.key -> event array
(** The sub-history on one object — linearizability is local (Herlihy &
    Wing), so the checker works per object. *)
