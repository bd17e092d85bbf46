(** The Elle baseline (Kingsbury & Alvaro, VLDB'20): isolation checking by
    inferring dependency graphs from observed workload structure.

    Two modes, as in paper Section V-F:
    - {b list-append} ({!check_append}): reading a list of n appended
      elements reveals the whole version prefix, so write-write order is
      inferred exactly along observed prefixes.  Detects aborted/thin-air
      elements, incompatible read prefixes, duplicate elements, and
      SER/SI-forbidden cycles.  Sound; complete up to unobserved tails.
    - {b read-write registers} ({!check_registers}): writes are blind, so
      version order is inferred only where a transaction
      reads-then-overwrites (the traceability Elle shares with MTC's RMW
      insight).  Sound but incomplete: cycles through un-inferred
      write-write edges are missed — the lower detection effectiveness
      visible in Figure 13. *)

type result = { ok : bool; reason : string }

val check_append : level:Checker.level -> Elle_log.t -> result
(** [level] must be [SER] or [SI]; SSER is not supported by this
    baseline. *)

val check_registers : level:Checker.level -> History.t -> result
(** Runs {!Polygraph.screen} first, so a duplicate value or an INT
    anomaly is refused before any inference.  [level] as above. *)
