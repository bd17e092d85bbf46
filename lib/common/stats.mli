(** Small statistics helpers for the benchmark harness. *)

val mean : float array -> float
val median : float array -> float
val stddev : float array -> float
val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]]; nearest-rank on a sorted copy. *)

val min : float array -> float
val max : float array -> float

type summary = {
  n : int;
  mean : float;
  median : float;
  stddev : float;
  min : float;
  max : float;
}

val summarize : float array -> summary

val time_it : (unit -> 'a) -> 'a * float
(** [time_it f] runs [f ()] and returns its result with elapsed wall-clock
    seconds. *)

val time_repeat : ?warmup:int -> repeat:int -> (unit -> 'a) -> float array
(** Run [f] [warmup] times unmeasured, then [repeat] times, returning the
    elapsed seconds of each measured run. *)

val live_words : unit -> int
(** Live heap words after a full major collection — used as the memory
    metric in the end-to-end benchmarks (Figures 10d–f, 17). *)
