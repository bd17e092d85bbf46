(* Per-shard write-ahead log, one file per shard generation.

   File layout (all multi-byte integers little-endian u32 unless they
   are Binio varints):

     magic "mtcwal1\n" (8 bytes)
     u32 header length | header payload | u32 CRC-32(header payload)
     checkpoint record * count
     record*

   where the header payload is [version=3, shard, nshards, gen,
   next_sid, count] as uvarints and every record is

     u32 payload length | payload | u32 CRC-32(payload)

   with the payload a tagged Binio encoding (1 = open, 2 = feed,
   3 = close, 4 = checkpointed session).  A checkpoint record is [sid,
   last_seq] and a state byte: 0 = live, an {!Online.encode} blob
   follows (its settings leading); 1 = poisoned, the settings in
   {!Online.add_settings}' format follow, then the anomaly option and
   the rendered counterexample (a poisoned session's graph is dead
   weight, its rendered verdict is all it will ever produce again).
   Each session holds its settings once, so they cannot disagree with
   its checker.

   The head (header + checkpoint) goes to [path ^ ".tmp"], is fsynced,
   renamed over [path] and the directory fsynced whatever the sync
   policy — a crash leaves either no file or a whole checkpoint.  A
   checkpoint record holds a whole checker, so it is not held to
   [max_record]; its length is bounded by the file it sits in.

   Appends are group-committed: records accumulate in a user-space
   buffer and reach the kernel in one [write] per drain barrier (the
   owning shard's ingress queue going empty), per ack barrier
   (session-open and verdict acks), per size threshold, or on close — a
   thousand-feed burst is one syscall, not a thousand.  After the flush
   the bytes live in the page cache, so a [kill -9] of the server loses
   at most the buffered tail since the last barrier; [fsync] (the
   [sync] policy) adds protection against OS crashes and power loss.
   [Always] mode keeps the historical record-per-write+fsync
   discipline.

   A short or corrupt checkpoint makes the whole file unreadable.  After
   it, a torn tail (crash mid-append) parses as a clean [Truncated]
   stop; a CRC or tag mismatch is [Corrupt].  Neither escapes as an
   exception.

   v2 added the GC policy to [R_open]; v3 puts the checkpoint at the
   head of the file (it was a separate snapshot file before).  The
   open/feed/close records keep v2's bytes. *)

let magic = "mtcwal1\n"
let version = 3

(* Records can embed a whole wire transaction; mirror the wire frame
   ceiling so a corrupt length prefix cannot make restore allocate
   gigabytes. *)
let max_record = 1 lsl 24

type sync = Always | Batch | Off

let sync_of_string = function
  | "always" -> Some Always
  | "batch" -> Some Batch
  | "off" -> Some Off
  | _ -> None

let sync_name = function Always -> "always" | Batch -> "batch" | Off -> "off"

(* In [Batch] mode, fsync every this many appends even without an
   explicit barrier, bounding the window an OS crash can lose.  Only an
   OS crash: a plain server kill loses nothing (the bytes are already
   written), and verdict acks are guarded by the {!barrier} fsync — so
   this ceiling trades a modest loss window for keeping streaming
   throughput close to the WAL-off line. *)
let batch_every = 2048

type state =
  | Live of Online.t
  | Poisoned of {
      settings : Online.settings;
      anomaly : string option;
      rendered : string;
    }

type entry = { sid : int; last_seq : int; state : state }

let settings = function
  | Live online -> Online.settings online
  | Poisoned { settings; _ } -> settings

type record =
  | R_open of { sid : int; settings : Online.settings }
  | R_feed of { sid : int; seq : int; txn : Txn.t }
  | R_close of { sid : int }

type header = { h_shard : int; h_nshards : int; h_gen : int; h_next_sid : int }

let add_u32le buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let add_record buf = function
  | R_open { sid; settings } ->
      Buffer.add_char buf '\001';
      Binio.add_uvarint buf sid;
      Online.add_settings buf settings
  | R_feed { sid; seq; txn } ->
      Buffer.add_char buf '\002';
      Binio.add_uvarint buf sid;
      Binio.add_uvarint buf seq;
      Binio.add_txn buf txn
  | R_close { sid } ->
      Buffer.add_char buf '\003';
      Binio.add_uvarint buf sid

let read_record r =
  match Binio.read_byte r with
  | 1 ->
      let sid = Binio.read_uvarint r in
      R_open { sid; settings = Online.read_settings r }
  | 2 ->
      let sid = Binio.read_uvarint r in
      let seq = Binio.read_uvarint r in
      R_feed { sid; seq; txn = Binio.read_txn r }
  | 3 -> R_close { sid = Binio.read_uvarint r }
  | t -> Binio.fail "unknown WAL record tag %d" t

let add_entry buf e =
  Buffer.add_char buf '\004';
  Binio.add_uvarint buf e.sid;
  Binio.add_uvarint buf e.last_seq;
  match e.state with
  | Live online ->
      Buffer.add_char buf '\000';
      Online.encode buf online
  | Poisoned { settings; anomaly; rendered } ->
      Buffer.add_char buf '\001';
      Online.add_settings buf settings;
      (match anomaly with
      | None -> Buffer.add_char buf '\000'
      | Some a ->
          Buffer.add_char buf '\001';
          Binio.add_string buf a);
      Binio.add_string buf rendered

let read_entry r =
  (match Binio.read_byte r with
  | 4 -> ()
  | t -> Binio.fail "record tag %d where a checkpoint record belongs" t);
  let sid = Binio.read_uvarint r in
  let last_seq = Binio.read_uvarint r in
  let state =
    match Binio.read_byte r with
    | 0 -> Live (Online.decode r)
    | 1 ->
        let settings = Online.read_settings r in
        let anomaly =
          match Binio.read_byte r with
          | 0 -> None
          | 1 -> Some (Binio.read_string r)
          | b -> Binio.fail "bad anomaly presence byte %d" b
        in
        Poisoned { settings; anomaly; rendered = Binio.read_string r }
    | b -> Binio.fail "unknown session state byte %d" b
  in
  { sid; last_seq; state }

(* ------------------------------------------------------------------ *)
(* Writing. *)

(* Cap on how many encoded bytes group commit may hold back from the
   kernel: a burst larger than this still lands in a handful of writes,
   and a [kill -9] can lose at most this much un-barriered tail. *)
let flush_threshold = 1 lsl 18

type writer = {
  fd : Unix.file_descr;
  scratch : Buffer.t;  (* record payload *)
  pending : Buffer.t;
      (* group commit: encoded len+payload+crc blocks accumulate here
         and reach the kernel in one [write] per {!flush} *)
  sync : sync;
  on_fsync : int -> unit;  (* called with the fsync's duration in ns *)
  mutable unsynced : int;
  mutable closed : bool;
}

let rec really_write fd b off len =
  if len > 0 then
    let n =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd b (off + n) (len - n)

(* One write(2) for everything queued since the last flush. *)
let flush w =
  if (not w.closed) && Buffer.length w.pending > 0 then begin
    let b = Buffer.to_bytes w.pending in
    really_write w.fd b 0 (Bytes.length b);
    Buffer.clear w.pending
  end

let fsync w =
  flush w;
  let t0 = Obs.Clock.now_ns () in
  Unix.fsync w.fd;
  w.unsynced <- 0;
  w.on_fsync (Obs.Clock.now_ns () - t0)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* Move the payload encoded in [w.scratch] into the group-commit buffer
   as one length+payload+crc block; returns the block's size. *)
let add_block w =
  let payload = Buffer.contents w.scratch in
  let len = String.length payload in
  if len > 0xffff_ffff then invalid_arg "Wal: record longer than 4 GiB";
  add_u32le w.pending len;
  Buffer.add_string w.pending payload;
  add_u32le w.pending (Crc32.string payload);
  4 + len + 4

let create ?(on_fsync = fun _ -> ()) ~path ~shard ~nshards ~gen ~next_sid
    ~sync entries =
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let w =
    {
      fd;
      scratch = Buffer.create 256;
      pending = Buffer.create 4096;
      sync;
      on_fsync;
      unsynced = 0;
      closed = false;
    }
  in
  match
    Buffer.add_string w.pending magic;
    List.iter
      (Binio.add_uvarint w.scratch)
      [ version; shard; nshards; gen; next_sid; List.length entries ];
    ignore (add_block w);
    List.iter
      (fun e ->
        Buffer.clear w.scratch;
        add_entry w.scratch e;
        ignore (add_block w);
        if Buffer.length w.pending >= flush_threshold then flush w)
      entries;
    fsync w;
    (* a checkpoint record can hold a whole checker: give the buffers'
       capacity back rather than keep it for the generation's life *)
    Buffer.reset w.scratch;
    Buffer.reset w.pending;
    Unix.rename tmp path;
    fsync_dir (Filename.dirname path)
  with
  | () -> w
  | exception e ->
      Unix.close fd;
      raise e

let append w record =
  if w.closed then invalid_arg "Wal.append: writer closed";
  Buffer.clear w.scratch;
  add_record w.scratch record;
  let added = add_block w in
  (match w.sync with
  | Always -> fsync w
  | Batch ->
      w.unsynced <- w.unsynced + 1;
      if w.unsynced >= batch_every then fsync w
      else if Buffer.length w.pending >= flush_threshold then flush w
  | Off -> if Buffer.length w.pending >= flush_threshold then flush w);
  added

(* The ack barrier: make everything appended so far durable before a
   verdict is acknowledged (a plain group-commit flush in [Off] mode,
   already durable in [Always] mode). *)
let barrier w =
  if not w.closed then
    if w.sync = Batch && w.unsynced > 0 then fsync w else flush w

let close w =
  if not w.closed then begin
    if w.sync <> Off && w.unsynced > 0 then fsync w else flush w;
    w.closed <- true;
    Unix.close w.fd
  end

(* ------------------------------------------------------------------ *)
(* Reading. *)

type tail =
  | Complete
  | Truncated of int  (** torn tail starting at this byte offset *)
  | Corrupt of { offset : int; reason : string }

let read_u32le src pos =
  Char.code (Binio.Source.get src pos)
  lor (Char.code (Binio.Source.get src (pos + 1)) lsl 8)
  lor (Char.code (Binio.Source.get src (pos + 2)) lsl 16)
  lor (Char.code (Binio.Source.get src (pos + 3)) lsl 24)

(* Parse one length+payload+crc block at [pos].  [`Short] = torn tail.
   A length past [max] is corrupt; one past the end of the file is
   short, so no length makes this copy more bytes than the file
   holds. *)
let read_block ?(max = max_record) src pos =
  let total = Binio.Source.length src in
  if total - pos < 4 then `Short
  else
    let len = read_u32le src pos in
    if len <= 0 || len > max then
      `Bad (Printf.sprintf "block length %d out of range" len)
    else if total - pos < 4 + len + 4 then `Short
    else
      let payload = Binio.Source.sub_string src (pos + 4) len in
      if Crc32.string payload <> read_u32le src (pos + 4 + len) then
        `Bad "CRC mismatch"
      else `Block (payload, pos + 4 + len + 4)

(* Decode a whole block payload; @raise Binio.Decode_error. *)
let decode read payload =
  let r = Binio.reader payload in
  let v = read r in
  if not (Binio.at_end r) then Binio.fail "trailing record bytes";
  v

let read_header r =
  let v = Binio.read_uvarint r in
  if v <> version then
    Binio.fail "WAL version %d (this build reads %d)" v version;
  let h_shard = Binio.read_uvarint r in
  let h_nshards = Binio.read_uvarint r in
  let h_gen = Binio.read_uvarint r in
  let h_next_sid = Binio.read_uvarint r in
  ({ h_shard; h_nshards; h_gen; h_next_sid }, Binio.read_uvarint r)

(* The checkpoint: exactly [count] intact records from [pos], or the
   reason there are fewer. *)
let read_checkpoint src pos count =
  let rec go i pos acc =
    if i = count then Ok (List.rev acc, pos)
    else
      let bad reason =
        Error (Printf.sprintf "checkpoint record %d of %d: %s" (i + 1) count
                 reason)
      in
      match read_block ~max:max_int src pos with
      | `Short ->
          Error
            (Printf.sprintf "checkpoint cut short: %d of %d records" i count)
      | `Bad reason -> bad reason
      | `Block (payload, next) -> (
          match decode read_entry payload with
          | e -> go (i + 1) next (e :: acc)
          | exception Binio.Decode_error m -> bad m)
  in
  go 0 pos []

(* The records after the checkpoint, up to the first torn or corrupt
   one. *)
let read_tail src pos =
  let rec go pos acc =
    if pos >= Binio.Source.length src then (List.rev acc, Complete)
    else
      match read_block src pos with
      | `Short -> (List.rev acc, Truncated pos)
      | `Bad reason -> (List.rev acc, Corrupt { offset = pos; reason })
      | `Block (payload, next) -> (
          match decode read_record payload with
          | record -> go next (record :: acc)
          | exception Binio.Decode_error reason ->
              (List.rev acc, Corrupt { offset = pos; reason }))
  in
  go pos []

let read_path path =
  match Binio.Source.map_file path with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | src -> (
      let mlen = String.length magic in
      if
        Binio.Source.length src < mlen
        || Binio.Source.sub_string src 0 mlen <> magic
      then Error "not a WAL file"
      else
        match read_block src mlen with
        | `Short | `Bad _ -> Error "bad WAL header"
        | `Block (payload, pos) -> (
            match decode read_header payload with
            | exception Binio.Decode_error m -> Error m
            | header, count -> (
                match read_checkpoint src pos count with
                | Error _ as e -> e
                | Ok (entries, pos) ->
                    let records, tail = read_tail src pos in
                    Ok (header, entries, records, tail))))
