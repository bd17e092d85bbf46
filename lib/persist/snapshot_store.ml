(* Versioned per-shard snapshots of live checker sessions.

   File layout:

     magic "mtcsnp1\n" (8 bytes) | payload | u32le CRC-32(payload)

   payload (Binio varints):

     version=5, shard, nshards, gen, next_sid, entry count,
     then per entry: sid, meta (level byte, num_keys, skew, ts byte,
     gc byte [+ uvarint word ceiling]),
     last_seq, state byte — 0 = live (an {!Online.encode} blob follows),
     1 = poisoned (anomaly option + rendered counterexample strings; a
     poisoned session's graph is dead weight, its rendered verdict is
     all it will ever produce again).

   Writes go to [path ^ ".tmp"], are fsynced, then renamed over [path]
   and the directory is fsynced — a crash leaves either the old
   snapshot or the new one, never a torn file that passes its CRC. *)

let magic = "mtcsnp1\n"
let version = 5

type meta = {
  level : Checker.level;
  num_keys : int;
  skew : int;
  ts : Ts.mode;
  gc : Online.gc;
}

type state =
  | Live of Online.t
  | Poisoned of { anomaly : string option; rendered : string }

type entry = { sid : int; meta : meta; last_seq : int; state : state }

type info = {
  i_shard : int;
  i_nshards : int;
  i_gen : int;
  i_next_sid : int;
  i_entries : entry list;
}

let level_byte = function Checker.SSER -> 0 | Checker.SER -> 1 | Checker.SI -> 2

let level_of_byte = function
  | 0 -> Checker.SSER
  | 1 -> Checker.SER
  | 2 -> Checker.SI
  | b -> Binio.fail "unknown level byte %d" b

let ts_byte = function Ts.Ignore -> 0 | Ts.Trust -> 1 | Ts.Verify -> 2

let ts_of_byte = function
  | 0 -> Ts.Ignore
  | 1 -> Ts.Trust
  | 2 -> Ts.Verify
  | b -> Binio.fail "unknown ts mode byte %d" b

let add_gc buf = function
  | Online.Gc_off -> Buffer.add_char buf '\000'
  | Online.Gc_auto -> Buffer.add_char buf '\001'
  | Online.Gc_words n ->
      Buffer.add_char buf '\002';
      Binio.add_uvarint buf n

let read_gc r =
  match Binio.read_byte r with
  | 0 -> Online.Gc_off
  | 1 -> Online.Gc_auto
  | 2 ->
      let n = Binio.read_uvarint r in
      if n <= 0 then Binio.fail "gc word ceiling %d must be positive" n
      else Online.Gc_words n
  | b -> Binio.fail "unknown gc policy byte %d" b

let add_entry buf e =
  Binio.add_uvarint buf e.sid;
  Buffer.add_char buf (Char.chr (level_byte e.meta.level));
  Binio.add_uvarint buf e.meta.num_keys;
  Binio.add_varint buf e.meta.skew;
  Buffer.add_char buf (Char.chr (ts_byte e.meta.ts));
  add_gc buf e.meta.gc;
  Binio.add_uvarint buf e.last_seq;
  match e.state with
  | Live online ->
      Buffer.add_char buf '\000';
      Online.encode buf online
  | Poisoned { anomaly; rendered } ->
      Buffer.add_char buf '\001';
      (match anomaly with
      | None -> Buffer.add_char buf '\000'
      | Some a ->
          Buffer.add_char buf '\001';
          Binio.add_string buf a);
      Binio.add_string buf rendered

let read_entry r =
  let sid = Binio.read_uvarint r in
  let level = level_of_byte (Binio.read_byte r) in
  let num_keys = Binio.read_uvarint r in
  let skew = Binio.read_varint r in
  let ts = ts_of_byte (Binio.read_byte r) in
  let gc = read_gc r in
  let meta = { level; num_keys; skew; ts; gc } in
  let last_seq = Binio.read_uvarint r in
  let state =
    match Binio.read_byte r with
    | 0 -> Live (Online.decode r)
    | 1 ->
        let anomaly =
          match Binio.read_byte r with
          | 0 -> None
          | 1 -> Some (Binio.read_string r)
          | b -> Binio.fail "bad anomaly presence byte %d" b
        in
        Poisoned { anomaly; rendered = Binio.read_string r }
    | b -> Binio.fail "unknown session state byte %d" b
  in
  { sid; meta; last_seq; state }

let add_u32le buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let rec really_write fd b off len =
  if len > 0 then
    let n =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd b (off + n) (len - n)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let write ~path ~shard ~nshards ~gen ~next_sid entries =
  let buf = Buffer.create 4096 in
  Binio.add_uvarint buf version;
  Binio.add_uvarint buf shard;
  Binio.add_uvarint buf nshards;
  Binio.add_uvarint buf gen;
  Binio.add_uvarint buf next_sid;
  Binio.add_uvarint buf (List.length entries);
  List.iter (add_entry buf) entries;
  let payload = Buffer.contents buf in
  let out = Buffer.create (String.length payload + 16) in
  Buffer.add_string out magic;
  Buffer.add_string out payload;
  add_u32le out (Crc32.string payload);
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Buffer.to_bytes out in
      really_write fd b 0 (Bytes.length b);
      Unix.fsync fd);
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

let read path =
  match Binio.Source.map_file path with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | src -> (
      let total = Binio.Source.length src in
      let mlen = String.length magic in
      if total < mlen + 4 || Binio.Source.sub_string src 0 mlen <> magic then
        Error (Printf.sprintf "%s: not a snapshot file" path)
      else
        let plen = total - mlen - 4 in
        let payload = Binio.Source.sub_string src mlen plen in
        let crc =
          Char.code (Binio.Source.get src (mlen + plen))
          lor (Char.code (Binio.Source.get src (mlen + plen + 1)) lsl 8)
          lor (Char.code (Binio.Source.get src (mlen + plen + 2)) lsl 16)
          lor (Char.code (Binio.Source.get src (mlen + plen + 3)) lsl 24)
        in
        if Crc32.string payload <> crc then
          Error (Printf.sprintf "%s: snapshot CRC mismatch" path)
        else
          match
            let r = Binio.reader payload in
            let v = Binio.read_uvarint r in
            if v <> version then
              Binio.fail "snapshot version %d (this build reads %d)" v version;
            let i_shard = Binio.read_uvarint r in
            let i_nshards = Binio.read_uvarint r in
            let i_gen = Binio.read_uvarint r in
            let i_next_sid = Binio.read_uvarint r in
            let n = Binio.read_uvarint r in
            if n < 0 || n > Binio.remaining r then
              Binio.fail "snapshot entry count %d overruns input" n;
            let i_entries = List.init n (fun _ -> read_entry r) in
            if not (Binio.at_end r) then
              Binio.fail "%d trailing snapshot bytes" (Binio.remaining r);
            { i_shard; i_nshards; i_gen; i_next_sid; i_entries }
          with
          | info -> Ok info
          | exception Binio.Decode_error m ->
              Error (Printf.sprintf "%s: %s" path m))
