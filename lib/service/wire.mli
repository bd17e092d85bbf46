(** The MTC service wire protocol: compact length-prefixed binary frames
    over a byte stream.

    Layout of every frame: a [u32] big-endian payload length, then a one
    byte tag, then the tag-specific payload with varint-encoded integers
    and length-prefixed strings (see {!Binio}).  A connection starts with
    a versioned handshake ([Hello] → [Welcome] or [Error]); after that,
    frames are session-multiplexed — each [Open_session] creates an
    independent online checker on the server, and [Feed] / [Verdict] /
    [Sync] / [Throttle] frames name it by session id.

    Flow control: the server bounds each session's ingress queue.  When a
    session crosses its high-water mark the server emits
    [Throttle {queued}] (advisory — the hard backpressure is the server
    simply not reading, which TCP propagates), and [Resume] once the
    queue drains.  After a [Verdict] carrying a violation the session is
    poisoned: every further [Feed]/[Sync] is answered with the same
    rendered counterexample. *)

val magic : string

val version : int
(** Protocol version 6: v2 gave [Open_session] a trailing timestamp-mode
    byte (the Vbox fast path of {!Ts}); v3 added
    [Resume_session]/[Session_resumed] for re-attaching sessions that
    survived a server restart; v4 gave [Open_session] a trailing
    watermark-GC policy; v5 adds
    [Session_stats_request]/[Session_stats_reply] (per-session telemetry
    plus the service event journal) and the [R_pinned] close reason; v6
    writes [Open_session]'s level, timestamp mode and GC policy with
    {!Online}'s settings field codecs, the GC policy behind a presence
    byte (0 = the server's default, 1 = a policy follows).  The
    handshake refuses other versions. *)

val max_frame : int
(** Upper bound on a payload length; longer prefixes are protocol
    errors (guards the server against hostile allocations). *)

type verdict =
  | V_ok of int  (** transactions accepted so far *)
  | V_violation of { anomaly : string option; rendered : string }
      (** [anomaly] is the Figure-5 catalogue name when classifiable;
          [rendered] the printable counterexample *)

type close_reason =
  | R_requested  (** client sent [Close_session] *)
  | R_idle  (** idle-session timeout *)
  | R_shutdown  (** server draining for shutdown *)
  | R_protocol of string  (** session-fatal protocol misuse *)
  | R_pinned
      (** fenced by the horizon-pin detector ([--pin-fence close]): the
          session stalled while pinning the GC watermark *)

val close_reason_code : close_reason -> int
(** The reason's code, 0 to 4 in declaration order: the byte a
    [Session_closed] frame carries, and the journal's payload word for
    a close. *)

val close_reason_name : int -> string
(** The name of a reason code (["requested"], ["idle"], ["shutdown"],
    ["protocol"], ["pinned"]); an unknown code prints as itself. *)

type session_stat = {
  ss_sid : int;
  ss_shard : int;
  ss_level : Checker.level;
  ss_poisoned : bool;
  ss_pinned : bool;  (** flagged by the horizon-pin detector *)
  ss_frontier : int;  (** transactions fed to this session's checker *)
  ss_watermark : int;
      (** the checker's current GC horizon position; [-1] before any
          feed *)
  ss_lag : int;
      (** [frontier - watermark]: arrivals the slowest internal stream
          session pins against GC (0 when the watermark is vacuous) *)
  ss_live_words : int;  (** retained-memory estimate *)
  ss_queued : int;  (** ingress queue depth right now *)
  ss_last_seq : int;  (** highest applied feed sequence number *)
  ss_feeds : int;  (** feeds accepted over the session's lifetime *)
  ss_age_ms : int;  (** since the session opened *)
  ss_idle_ms : int;  (** since the last frame from its client *)
}
(** One live session's telemetry inside a [Session_stats_reply]. *)

type journal_event = {
  je_kind : Obs.Journal.kind;
  je_age_ms : int;
      (** ms before the reply was built (monotonic clocks don't
          travel) *)
  je_dom : int;
  je_a : int;
  je_b : int;
  je_c : int;
}
(** One {!Obs.Journal} event inside a [Session_stats_reply]; the payload
    words [a]/[b]/[c] are per-kind (see {!Obs.Journal.kind}). *)

type frame =
  | Hello of { version : int }
  | Welcome of { version : int; server : string }
  | Open_session of {
      level : Checker.level;
      num_keys : int;
      skew : int;
      ts : Ts.mode;  (** timestamp fast path for this session's checker *)
      gc : Online.gc option;
          (** watermark-GC policy; [None] = the server's default *)
    }
  | Session_opened of { sid : int }
  | Feed of { sid : int; seq : int; txn : Txn.t }
  | Verdict of { sid : int; seq : int; verdict : verdict }
  | Sync of { sid : int; seq : int }
      (** ask for the session's current verdict; answered by [Verdict]
          with the same [seq] *)
  | Throttle of { sid : int; queued : int }
  | Resume of { sid : int }
  | Stats_request
  | Stats_reply of { json : string }
  | Close_session of { sid : int }
  | Session_closed of { sid : int; reason : close_reason }
  | Error of { code : int; msg : string }
  | Bye
  | Resume_session of { sid : int }
      (** re-attach a session restored from the WAL/snapshot after a
          server restart; answered by [Session_resumed] (or [Error] with
          {!err_unknown_session}) *)
  | Session_resumed of { sid : int; last_seq : int }
      (** [last_seq] is the highest applied feed sequence number — the
          client skips transactions up to and including it *)
  | Session_stats_request
      (** per-session telemetry + buffered journal events; answered by
          [Session_stats_reply] *)
  | Session_stats_reply of {
      sessions : session_stat list;
      events : journal_event list;
      journal_dropped : int;
          (** journal events lost to ring overwrite since startup *)
    }

val err_bad_magic : int
val err_version : int
val err_bad_frame : int
val err_unknown_session : int

val frame_name : frame -> string

val encode : scratch:Buffer.t -> Buffer.t -> frame -> unit
(** [encode ~scratch out f] appends the length-prefixed encoding of [f]
    to [out]; [scratch] is clobbered.  Reuse both buffers across frames
    to keep steady-state encoding allocation-free. *)

val decode : string -> (frame, string) result
(** Decode one frame payload (without the length prefix).  Total: any
    malformed input yields [Error], never an exception. *)

val to_string : frame -> string
(** Convenience: the full length-prefixed encoding as a fresh string. *)

val of_string : ?pos:int -> string -> (frame * int, string) result
(** Parse one full length-prefixed frame at [pos]; also returns the
    position just past it. *)

(** {1 Blocking frame I/O over file descriptors} (EINTR-safe) *)

type out_bufs

val out_bufs : unit -> out_bufs
(** Reusable encode buffers; one per connection (guard with the
    connection's output lock). *)

val write_frame : Unix.file_descr -> out_bufs -> frame -> unit
(** @raise Unix.Unix_error when the peer is gone. *)

val read_frame : Unix.file_descr -> (frame option, string) result
(** [Ok None] on clean EOF at a frame boundary; [Error _] on truncated
    or malformed input, or a read error. *)
