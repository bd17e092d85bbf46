(* The MTC service wire protocol: length-prefixed binary frames over a
   byte stream (Unix-domain or TCP socket).

   Every frame is

     +----------------+-----+---------------------+
     | payload length | tag | payload (tag-specific) |
     |   u32 big-endian   | u8  |                     |
     +----------------+-----+---------------------+

   with integers inside payloads encoded as (zigzag) LEB128 varints and
   strings length-prefixed (see {!Binio}).  The session opens with a
   versioned handshake: the client's first frame must be [Hello] carrying
   the magic and its protocol version; the server answers [Welcome] (or
   [Error] and closes).  Everything after the handshake is
   session-multiplexed: [Open_session] creates an independent online
   checker, and [Feed]/[Verdict]/[Sync] frames carry its session id. *)

let magic = "MTCS"

(* v2: [Open_session] grew a trailing timestamp-mode byte (the Vbox fast
   path of {!Ts}).  v3: [Resume_session]/[Session_resumed] re-attach a
   session that survived a server restart (the durable-service crash
   story).  v4: [Open_session] grew a trailing watermark-GC policy
   ([None] = the server's default).  v5: [Session_stats_request]/
   [Session_stats_reply] expose per-session telemetry and the service
   event journal, and sessions fenced by the horizon-pin detector close
   with [R_pinned].  v6: [Open_session]'s settings use {!Online}'s
   settings codec, so its GC field is a presence byte followed by
   {!Online.add_gc}.  Other versions are refused at the handshake. *)
let version = 6

(* Hard ceiling on a single frame — a malformed or hostile length prefix
   must not make the server allocate gigabytes. *)
let max_frame = 1 lsl 24

type verdict =
  | V_ok of int  (** transactions accepted so far *)
  | V_violation of { anomaly : string option; rendered : string }

type close_reason =
  | R_requested
  | R_idle
  | R_shutdown
  | R_protocol of string
  | R_pinned

(* One live session's telemetry inside a [Session_stats_reply]. *)
type session_stat = {
  ss_sid : int;
  ss_shard : int;
  ss_level : Checker.level;
  ss_poisoned : bool;
  ss_pinned : bool;
  ss_frontier : int;  (* transactions fed to the checker *)
  ss_watermark : int;  (* current GC horizon position; -1 before any feed *)
  ss_lag : int;  (* frontier - watermark: arrivals pinned against GC *)
  ss_live_words : int;
  ss_queued : int;  (* ingress queue depth *)
  ss_last_seq : int;
  ss_feeds : int;  (* feeds accepted over the session's lifetime *)
  ss_age_ms : int;
  ss_idle_ms : int;  (* since the last frame from the client *)
}

(* One journal event inside a [Session_stats_reply]; ages are relative
   to the moment the reply was built (monotonic clocks don't travel). *)
type journal_event = {
  je_kind : Obs.Journal.kind;
  je_age_ms : int;
  je_dom : int;
  je_a : int;
  je_b : int;
  je_c : int;
}

type frame =
  | Hello of { version : int }
  | Welcome of { version : int; server : string }
  | Open_session of {
      level : Checker.level;
      num_keys : int;
      skew : int;
      ts : Ts.mode;
      gc : Online.gc option;
    }
  | Session_opened of { sid : int }
  | Feed of { sid : int; seq : int; txn : Txn.t }
  | Verdict of { sid : int; seq : int; verdict : verdict }
  | Sync of { sid : int; seq : int }
  | Throttle of { sid : int; queued : int }
  | Resume of { sid : int }
  | Stats_request
  | Stats_reply of { json : string }
  | Close_session of { sid : int }
  | Session_closed of { sid : int; reason : close_reason }
  | Error of { code : int; msg : string }
  | Bye
  | Resume_session of { sid : int }
  | Session_resumed of { sid : int; last_seq : int }
  | Session_stats_request
  | Session_stats_reply of {
      sessions : session_stat list;
      events : journal_event list;
      journal_dropped : int;
    }

(* Error codes carried by [Error] frames. *)
let err_bad_magic = 1
let err_version = 2
let err_bad_frame = 3
let err_unknown_session = 4

(* Close reasons by code: the [Session_closed] byte, and the journal's
   payload word for a close. *)
let close_reason_code = function
  | R_requested -> 0
  | R_idle -> 1
  | R_shutdown -> 2
  | R_protocol _ -> 3
  | R_pinned -> 4

let close_reason_name = function
  | 0 -> "requested"
  | 1 -> "idle"
  | 2 -> "shutdown"
  | 3 -> "protocol"
  | 4 -> "pinned"
  | n -> string_of_int n

let frame_name = function
  | Hello _ -> "hello"
  | Welcome _ -> "welcome"
  | Open_session _ -> "open-session"
  | Session_opened _ -> "session-opened"
  | Feed _ -> "feed"
  | Verdict _ -> "verdict"
  | Sync _ -> "sync"
  | Throttle _ -> "throttle"
  | Resume _ -> "resume"
  | Stats_request -> "stats-request"
  | Stats_reply _ -> "stats-reply"
  | Close_session _ -> "close-session"
  | Session_closed _ -> "session-closed"
  | Error _ -> "error"
  | Bye -> "bye"
  | Resume_session _ -> "resume-session"
  | Session_resumed _ -> "session-resumed"
  | Session_stats_request -> "session-stats-request"
  | Session_stats_reply _ -> "session-stats-reply"

(* ------------------------------------------------------------------ *)
(* Encoding. *)

let add_verdict buf = function
  | V_ok n ->
      Buffer.add_char buf '\000';
      Binio.add_uvarint buf n
  | V_violation { anomaly; rendered } ->
      Buffer.add_char buf '\001';
      (match anomaly with
      | None -> Buffer.add_char buf '\000'
      | Some a ->
          Buffer.add_char buf '\001';
          Binio.add_string buf a);
      Binio.add_string buf rendered

let add_reason buf reason =
  Buffer.add_char buf (Char.chr (close_reason_code reason));
  match reason with R_protocol msg -> Binio.add_string buf msg | _ -> ()

let add_session_stat buf s =
  Binio.add_uvarint buf s.ss_sid;
  Binio.add_uvarint buf s.ss_shard;
  Online.add_level buf s.ss_level;
  Buffer.add_char buf (if s.ss_poisoned then '\001' else '\000');
  Buffer.add_char buf (if s.ss_pinned then '\001' else '\000');
  Binio.add_uvarint buf s.ss_frontier;
  Binio.add_varint buf s.ss_watermark;
  Binio.add_uvarint buf s.ss_lag;
  Binio.add_uvarint buf s.ss_live_words;
  Binio.add_uvarint buf s.ss_queued;
  Binio.add_uvarint buf s.ss_last_seq;
  Binio.add_uvarint buf s.ss_feeds;
  Binio.add_uvarint buf s.ss_age_ms;
  Binio.add_uvarint buf s.ss_idle_ms

let add_journal_event buf e =
  Binio.add_uvarint buf (Obs.Journal.kind_code e.je_kind);
  Binio.add_uvarint buf e.je_age_ms;
  Binio.add_uvarint buf e.je_dom;
  Binio.add_varint buf e.je_a;
  Binio.add_varint buf e.je_b;
  Binio.add_varint buf e.je_c

let add_payload buf = function
  | Hello { version } ->
      Buffer.add_char buf '\001';
      Buffer.add_string buf magic;
      Binio.add_uvarint buf version
  | Welcome { version; server } ->
      Buffer.add_char buf '\002';
      Binio.add_uvarint buf version;
      Binio.add_string buf server
  | Open_session { level; num_keys; skew; ts; gc } ->
      Buffer.add_char buf '\003';
      Online.add_level buf level;
      Binio.add_uvarint buf num_keys;
      Binio.add_varint buf skew;
      Online.add_ts buf ts;
      (match gc with
      | None -> Buffer.add_char buf '\000'
      | Some gc ->
          Buffer.add_char buf '\001';
          Online.add_gc buf gc)
  | Session_opened { sid } ->
      Buffer.add_char buf '\004';
      Binio.add_uvarint buf sid
  | Feed { sid; seq; txn } ->
      Buffer.add_char buf '\005';
      Binio.add_uvarint buf sid;
      Binio.add_uvarint buf seq;
      Binio.add_txn buf txn
  | Verdict { sid; seq; verdict } ->
      Buffer.add_char buf '\006';
      Binio.add_uvarint buf sid;
      Binio.add_uvarint buf seq;
      add_verdict buf verdict
  | Sync { sid; seq } ->
      Buffer.add_char buf '\007';
      Binio.add_uvarint buf sid;
      Binio.add_uvarint buf seq
  | Throttle { sid; queued } ->
      Buffer.add_char buf '\008';
      Binio.add_uvarint buf sid;
      Binio.add_uvarint buf queued
  | Resume { sid } ->
      Buffer.add_char buf '\009';
      Binio.add_uvarint buf sid
  | Stats_request -> Buffer.add_char buf '\010'
  | Stats_reply { json } ->
      Buffer.add_char buf '\011';
      Binio.add_string buf json
  | Close_session { sid } ->
      Buffer.add_char buf '\012';
      Binio.add_uvarint buf sid
  | Session_closed { sid; reason } ->
      Buffer.add_char buf '\013';
      Binio.add_uvarint buf sid;
      add_reason buf reason
  | Error { code; msg } ->
      Buffer.add_char buf '\014';
      Binio.add_uvarint buf code;
      Binio.add_string buf msg
  | Bye -> Buffer.add_char buf '\015'
  | Resume_session { sid } ->
      Buffer.add_char buf '\016';
      Binio.add_uvarint buf sid
  | Session_resumed { sid; last_seq } ->
      Buffer.add_char buf '\017';
      Binio.add_uvarint buf sid;
      Binio.add_uvarint buf last_seq
  | Session_stats_request -> Buffer.add_char buf '\018'
  | Session_stats_reply { sessions; events; journal_dropped } ->
      Buffer.add_char buf '\019';
      Binio.add_uvarint buf (List.length sessions);
      List.iter (add_session_stat buf) sessions;
      Binio.add_uvarint buf (List.length events);
      List.iter (add_journal_event buf) events;
      Binio.add_uvarint buf journal_dropped

(* [encode ~scratch out frame] appends the length-prefixed frame to
   [out].  The payload is first built in [scratch] (cleared here) so the
   length prefix is known before it is written; both buffers are meant to
   be connection-owned and reused across frames, so steady-state encoding
   allocates nothing but the buffer growth itself. *)
let encode ~scratch out frame =
  Buffer.clear scratch;
  add_payload scratch frame;
  let len = Buffer.length scratch in
  Buffer.add_char out (Char.chr ((len lsr 24) land 0xff));
  Buffer.add_char out (Char.chr ((len lsr 16) land 0xff));
  Buffer.add_char out (Char.chr ((len lsr 8) land 0xff));
  Buffer.add_char out (Char.chr (len land 0xff));
  Buffer.add_buffer out scratch

let to_string frame =
  let out = Buffer.create 64 in
  encode ~scratch:(Buffer.create 64) out frame;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Decoding. *)

let read_verdict r =
  match Binio.read_byte r with
  | 0 -> V_ok (Binio.read_uvarint r)
  | 1 ->
      let anomaly =
        match Binio.read_byte r with
        | 0 -> None
        | 1 -> Some (Binio.read_string r)
        | b -> Binio.fail "bad anomaly presence byte %d" b
      in
      V_violation { anomaly; rendered = Binio.read_string r }
  | b -> Binio.fail "bad verdict tag %d" b

let read_reason r =
  match Binio.read_byte r with
  | 0 -> R_requested
  | 1 -> R_idle
  | 2 -> R_shutdown
  | 3 -> R_protocol (Binio.read_string r)
  | 4 -> R_pinned
  | b -> Binio.fail "bad close reason %d" b

let read_bool r =
  match Binio.read_byte r with
  | 0 -> false
  | 1 -> true
  | b -> Binio.fail "bad bool byte %d" b

let read_session_stat r =
  let ss_sid = Binio.read_uvarint r in
  let ss_shard = Binio.read_uvarint r in
  let ss_level = Online.read_level r in
  let ss_poisoned = read_bool r in
  let ss_pinned = read_bool r in
  let ss_frontier = Binio.read_uvarint r in
  let ss_watermark = Binio.read_varint r in
  let ss_lag = Binio.read_uvarint r in
  let ss_live_words = Binio.read_uvarint r in
  let ss_queued = Binio.read_uvarint r in
  let ss_last_seq = Binio.read_uvarint r in
  let ss_feeds = Binio.read_uvarint r in
  let ss_age_ms = Binio.read_uvarint r in
  let ss_idle_ms = Binio.read_uvarint r in
  {
    ss_sid; ss_shard; ss_level; ss_poisoned; ss_pinned; ss_frontier;
    ss_watermark; ss_lag; ss_live_words; ss_queued; ss_last_seq;
    ss_feeds; ss_age_ms; ss_idle_ms;
  }

let read_journal_event r =
  let je_kind =
    let c = Binio.read_uvarint r in
    match Obs.Journal.kind_of_code c with
    | Some k -> k
    | None -> Binio.fail "unknown journal event kind %d" c
  in
  let je_age_ms = Binio.read_uvarint r in
  let je_dom = Binio.read_uvarint r in
  let je_a = Binio.read_varint r in
  let je_b = Binio.read_varint r in
  let je_c = Binio.read_varint r in
  { je_kind; je_age_ms; je_dom; je_a; je_b; je_c }

(* Read [n] items sequentially (a hostile count simply exhausts the
   bounded payload and fails in the reader). *)
let read_list r n read_item =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (read_item r :: acc) in
  go n []

let decode_payload payload =
  let r = Binio.reader payload in
  let frame =
    match Binio.read_byte r with
    | 1 ->
        let m =
          if Binio.remaining r < String.length magic then
            Binio.fail "hello too short"
          else Binio.read_bytes r (String.length magic)
        in
        if m <> magic then Binio.fail "bad magic %S" m;
        Hello { version = Binio.read_uvarint r }
    | 2 ->
        let version = Binio.read_uvarint r in
        Welcome { version; server = Binio.read_string r }
    | 3 ->
        let level = Online.read_level r in
        let num_keys = Binio.read_uvarint r in
        let skew = Binio.read_varint r in
        let ts = Online.read_ts r in
        let gc =
          match Binio.read_byte r with
          | 0 -> None
          | 1 -> Some (Online.read_gc r)
          | b -> Binio.fail "bad gc presence byte %d" b
        in
        Open_session { level; num_keys; skew; ts; gc }
    | 4 -> Session_opened { sid = Binio.read_uvarint r }
    | 5 ->
        let sid = Binio.read_uvarint r in
        let seq = Binio.read_uvarint r in
        Feed { sid; seq; txn = Binio.read_txn r }
    | 6 ->
        let sid = Binio.read_uvarint r in
        let seq = Binio.read_uvarint r in
        Verdict { sid; seq; verdict = read_verdict r }
    | 7 ->
        let sid = Binio.read_uvarint r in
        Sync { sid; seq = Binio.read_uvarint r }
    | 8 ->
        let sid = Binio.read_uvarint r in
        Throttle { sid; queued = Binio.read_uvarint r }
    | 9 -> Resume { sid = Binio.read_uvarint r }
    | 10 -> Stats_request
    | 11 -> Stats_reply { json = Binio.read_string r }
    | 12 -> Close_session { sid = Binio.read_uvarint r }
    | 13 ->
        let sid = Binio.read_uvarint r in
        Session_closed { sid; reason = read_reason r }
    | 14 ->
        let code = Binio.read_uvarint r in
        Error { code; msg = Binio.read_string r }
    | 15 -> Bye
    | 16 -> Resume_session { sid = Binio.read_uvarint r }
    | 17 ->
        let sid = Binio.read_uvarint r in
        Session_resumed { sid; last_seq = Binio.read_uvarint r }
    | 18 -> Session_stats_request
    | 19 ->
        let sessions = read_list r (Binio.read_uvarint r) read_session_stat in
        let events = read_list r (Binio.read_uvarint r) read_journal_event in
        let journal_dropped = Binio.read_uvarint r in
        Session_stats_reply { sessions; events; journal_dropped }
    | t -> Binio.fail "unknown frame tag %d" t
  in
  if not (Binio.at_end r) then
    Binio.fail "%d trailing bytes after %s frame" (Binio.remaining r)
      (frame_name frame);
  frame

let decode payload =
  match decode_payload payload with
  | frame -> Ok frame
  | exception Binio.Decode_error m -> Result.Error m
  | exception Invalid_argument m -> Result.Error m

(* Parse one full length-prefixed frame from [s] starting at [pos];
   returns the frame and the position after it. *)
let of_string ?(pos = 0) s =
  let len_s = String.length s in
  if len_s - pos < 4 then Result.Error "truncated length prefix"
  else
    let len =
      (Char.code s.[pos] lsl 24)
      lor (Char.code s.[pos + 1] lsl 16)
      lor (Char.code s.[pos + 2] lsl 8)
      lor Char.code s.[pos + 3]
    in
    if len <= 0 || len > max_frame then
      Result.Error (Printf.sprintf "frame length %d out of range" len)
    else if len_s - pos - 4 < len then Result.Error "truncated frame"
    else
      match decode (String.sub s (pos + 4) len) with
      | Ok f -> Ok (f, pos + 4 + len)
      | Result.Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Blocking I/O over file descriptors (EINTR-safe). *)

let rec really_write fd b off len =
  if len > 0 then
    let n =
      try Unix.write fd b off len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd b (off + n) (len - n)

(* [Ok None] = clean EOF at a frame boundary. *)
let read_exact fd len =
  let b = Bytes.create len in
  let rec go off =
    if off >= len then Ok (Some b)
    else
      match Unix.read fd b off (len - off) with
      | 0 -> if off = 0 then Ok None else Result.Error "truncated frame"
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) ->
          Result.Error (Unix.error_message e)
  in
  go 0

(* A pair of reusable buffers for frame encoding (one per connection). *)
type out_bufs = { ob_scratch : Buffer.t; ob_out : Buffer.t }

let out_bufs () = { ob_scratch = Buffer.create 512; ob_out = Buffer.create 512 }

let write_frame fd bufs frame =
  Buffer.clear bufs.ob_out;
  encode ~scratch:bufs.ob_scratch bufs.ob_out frame;
  let b = Buffer.to_bytes bufs.ob_out in
  really_write fd b 0 (Bytes.length b)

let sp_decode = Obs.Trace.intern "wire/decode"

let read_frame fd =
  match read_exact fd 4 with
  | Result.Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some hdr) -> (
      let len =
        (Char.code (Bytes.get hdr 0) lsl 24)
        lor (Char.code (Bytes.get hdr 1) lsl 16)
        lor (Char.code (Bytes.get hdr 2) lsl 8)
        lor Char.code (Bytes.get hdr 3)
      in
      if len <= 0 || len > max_frame then
        Result.Error (Printf.sprintf "frame length %d out of range" len)
      else
        match read_exact fd len with
        | Result.Error _ as e -> e
        | Ok None -> Result.Error "truncated frame"
        | Ok (Some payload) -> (
            (* span the parse only, never the blocking read above *)
            match
              Obs.Trace.with_span sp_decode (fun () ->
                  decode (Bytes.unsafe_to_string payload))
            with
            | Ok f -> Ok (Some f)
            | Result.Error _ as e -> e))
