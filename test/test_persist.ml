(* Durability tests: WAL reading is total under truncation at every
   byte and under corruption, snapshots refuse versions they cannot
   read, and a server restored from snapshot + WAL tail reaches
   verdicts byte-identical to an uninterrupted feed — across isolation
   levels, shard counts and restore paths (pure tail replay vs a full
   Online snapshot round-trip). *)

let qtest = QCheck_alcotest.to_alcotest
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let temp_name =
  let ctr = ref 0 in
  fun suffix ->
    incr ctr;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mtc-persist-%d-%d%s" (Unix.getpid ()) !ctr suffix)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rm_rf dir =
  if Sys.file_exists dir then (
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir)

let engine_history ?(txns = 200) ~level ~fault ~seed () =
  let spec =
    Mt_gen.generate { Mt_gen.default with num_txns = txns; num_keys = 10; seed }
  in
  let db = { Db.level; fault; num_keys = 10; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

(* One real history's transactions, in stream order — the WAL fixtures
   below log prefixes of it. *)
let fixture_txns =
  lazy
    (Client.stream_order
       (engine_history ~level:Isolation.Serializable ~fault:Fault.No_fault
          ~seed:3 ()))

let fixture_records n ~close =
  let feeds = List.filteri (fun i _ -> i < n) (Lazy.force fixture_txns) in
  (Wal.R_open
     { sid = 1;
       settings =
         { level = Checker.SER; num_keys = 10; skew = 0; ts = Ts.Ignore;
           gc = Online.Gc_off } }
  :: List.mapi (fun i txn -> Wal.R_feed { sid = 1; seq = i + 1; txn }) feeds)
  @ (if close then [ Wal.R_close { sid = 1 } ] else [])

let write_wal path records =
  let w = Wal.create ~path ~shard:0 ~nshards:1 ~gen:1 ~sync:Wal.Off () in
  List.iter (fun r -> ignore (Wal.append w r)) records;
  Wal.close w

let rec is_prefix short long =
  match (short, long) with
  | [], _ -> true
  | _, [] -> false
  | a :: s, b :: l -> a = b && is_prefix s l

(* ------------------------------------------------------------------ *)
(* WAL totality. *)

(* Cutting a WAL at EVERY byte must yield a strict record prefix with a
   clean Truncated/Complete tail, or (while still inside the header) a
   clean Error — never an exception, never an invented record, and
   never a regression from readable back to Error as bytes grow. *)
let prop_wal_truncation_total =
  QCheck2.Test.make ~name:"wal: truncation at every byte is total" ~count:6
    QCheck2.Gen.(pair (int_range 1 25) bool)
    (fun (n, close) ->
      let records = fixture_records n ~close in
      let path = temp_name ".wal" in
      write_wal path records;
      let full = read_file path in
      let full_records =
        match Wal.read_path path with
        | Ok (_, rs, Wal.Complete) -> rs
        | Ok (_, _, _) -> QCheck2.Test.fail_report "full WAL not Complete"
        | Error e -> QCheck2.Test.fail_report ("full WAL unreadable: " ^ e)
      in
      if full_records <> records then
        QCheck2.Test.fail_report "round-trip disagrees";
      let seen_ok = ref false in
      for cut = 0 to String.length full - 1 do
        write_file path (String.sub full 0 cut);
        match Wal.read_path path with
        | Ok (_, rs, tail) ->
            seen_ok := true;
            if not (is_prefix rs records) then
              QCheck2.Test.fail_reportf "cut %d: not a record prefix" cut;
            (match tail with
            | Wal.Complete | Wal.Truncated _ -> ()
            | Wal.Corrupt { offset; reason } ->
                QCheck2.Test.fail_reportf
                  "cut %d: truncation misread as corruption at %d (%s)" cut
                  offset reason)
        | Error e ->
            if !seen_ok then
              QCheck2.Test.fail_reportf
                "cut %d: readable at a shorter cut but Error here (%s)" cut e
      done;
      Sys.remove path;
      true)

(* Flipping any single byte past the header must surface as a shorter
   record prefix with a non-Complete tail — the CRC net has no holes. *)
let test_wal_bitflip_detected () =
  let records = fixture_records 8 ~close:true in
  let path = temp_name ".wal" in
  write_wal path records;
  let full = read_file path in
  (* the header ends where the empty-record-list parse first succeeds *)
  let header_end =
    let rec go cut =
      if cut > String.length full then
        Alcotest.fail "no readable header prefix"
      else (
        write_file path (String.sub full 0 cut);
        match Wal.read_path path with Ok _ -> cut | Error _ -> go (cut + 1))
    in
    go 0
  in
  for off = header_end to String.length full - 1 do
    let b = Bytes.of_string full in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
    write_file path (Bytes.to_string b);
    match Wal.read_path path with
    | Ok (_, rs, tail) ->
        checkb
          (Printf.sprintf "flip at %d: strict prefix" off)
          (is_prefix rs records && List.length rs < List.length records)
          true;
        checkb
          (Printf.sprintf "flip at %d: tail not Complete" off)
          (match tail with Wal.Complete -> false | _ -> true)
          true
    | Error e -> Alcotest.fail (Printf.sprintf "flip at %d: Error %s" off e)
  done;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Snapshots. *)

let test_snapshot_roundtrip () =
  let path = temp_name ".snap" in
  let settings =
    { Online.level = Checker.SI; num_keys = 10; skew = 0; ts = Ts.Ignore;
      gc = Online.Gc_off }
  in
  let entries =
    [
      {
        Snapshot_store.sid = 4;
        last_seq = 17;
        state =
          Snapshot_store.Poisoned
            { settings; anomaly = Some "lost update";
              rendered = "SI violation: boom" };
      };
    ]
  in
  Snapshot_store.write ~path ~shard:1 ~nshards:2 ~gen:3 ~next_sid:7 entries;
  (match Snapshot_store.read path with
  | Error e -> Alcotest.fail ("read back: " ^ e)
  | Ok info ->
      checki "shard" 1 info.Snapshot_store.i_shard;
      checki "nshards" 2 info.Snapshot_store.i_nshards;
      checki "gen" 3 info.Snapshot_store.i_gen;
      checki "next_sid" 7 info.Snapshot_store.i_next_sid;
      (match info.Snapshot_store.i_entries with
      | [ e ] -> (
          checki "sid" 4 e.Snapshot_store.sid;
          checki "last_seq" 17 e.Snapshot_store.last_seq;
          match e.Snapshot_store.state with
          | Snapshot_store.Poisoned { settings = s; anomaly; rendered } ->
              checkb "settings" (s = settings) true;
              checkb "anomaly" (anomaly = Some "lost update") true;
              checks "rendered verbatim" "SI violation: boom" rendered
          | Snapshot_store.Live _ -> Alcotest.fail "poisoned came back live")
      | es -> Alcotest.fail (Printf.sprintf "%d entries" (List.length es))));
  Sys.remove path

(* A snapshot from another format version must be refused with a
   message that names both versions — even when its CRC is valid — and
   any tampering that does not fix the CRC must be refused too.  A
   future version and the previous two (whose checker state has a
   different layout) are refused by name.  Inside a live entry, a
   checker whose free list names an out-of-range, repeated, live or
   initial vertex is refused by {!Online.decode}. *)
let test_snapshot_version_mismatch () =
  let path = temp_name ".snap" in
  Snapshot_store.write ~path ~shard:0 ~nshards:1 ~gen:1 ~next_sid:2 [];
  let full = read_file path in
  let magic_len = 8 and crc_len = 4 in
  checki "stored version byte" 6 (Char.code full.[magic_len]);
  (* the version is the payload's leading uvarint; 2 to 7 are all
     single bytes, so patch in place and recompute the trailing CRC *)
  let with_version v =
    let b = Bytes.of_string full in
    Bytes.set b magic_len (Char.chr v);
    let payload =
      Bytes.sub_string b magic_len (Bytes.length b - magic_len - crc_len)
    in
    let crc = Crc32.string payload in
    for i = 0 to 3 do
      Bytes.set b
        (Bytes.length b - crc_len + i)
        (Char.chr ((crc lsr (8 * i)) land 0xff))
    done;
    write_file path (Bytes.to_string b)
  in
  List.iter
    (fun (v, msg) ->
      with_version v;
      match Snapshot_store.read path with
      | Ok _ -> Alcotest.failf "snapshot version %d must be refused" v
      | Error e ->
          checkb ("names both versions: " ^ msg) (contains ~sub:msg e) true)
    [
      (7, "snapshot version 7 (this build reads 6)");
      (5, "snapshot version 5 (this build reads 6)");
      (4, "snapshot version 4 (this build reads 6)");
      (3, "snapshot version 3 (this build reads 6)");
      (2, "snapshot version 2 (this build reads 6)");
    ];
  (* same patch without the CRC fix: caught as corruption *)
  let b = Bytes.of_string full in
  Bytes.set b magic_len (Char.chr 7);
  write_file path (Bytes.to_string b);
  (match Snapshot_store.read path with
  | Ok _ -> Alcotest.fail "tampered snapshot must be refused"
  | Error e -> checkb "CRC catches tamper" (contains ~sub:"CRC" e) true);
  (* truncation at every byte: always a clean Error, never a raise *)
  for cut = 0 to String.length full - 1 do
    write_file path (String.sub full 0 cut);
    match Snapshot_store.read path with
    | Ok _ -> Alcotest.fail (Printf.sprintf "truncated at %d read Ok" cut)
    | Error _ -> ()
  done;
  Sys.remove path;
  (* a 50-txn chain compacted once has freed vertices to list; splice
     other free lists into its encoding, which puts the free list right
     after the graph, the vertex count and the two vertex tables *)
  let o = Online.create ~level:Checker.SER ~num_keys:1 () in
  for i = 1 to 50 do
    ignore
      (Online.add_txn o
         (Txn.make ~id:i ~session:1 [ Op.Read (0, i - 1); Op.Write (0, i) ]))
  done;
  ignore (Online.gc o);
  let buf = Buffer.create 1024 in
  Online.encode buf o;
  let blob = Buffer.contents buf in
  let r = Binio_core.reader blob in
  ignore (Online.read_settings r);
  ignore (Binio_core.read_uvarint r);
  ignore (Pearce_kelly.decode r);
  let next_vertex = Binio_core.read_uvarint r in
  ignore (Int_vec.decode r);
  ignore (Flat_index.decode r);
  let at = Binio_core.pos r in
  let free = Int_vec.decode r in
  let rest = Binio_core.pos r in
  checkb "the compaction freed vertices" true (Int_vec.length free > 1);
  let with_free entries =
    let b = Buffer.create (String.length blob) in
    Buffer.add_string b (String.sub blob 0 at);
    let v = Int_vec.create 4 in
    List.iter (Int_vec.push v) entries;
    Int_vec.encode b v;
    Buffer.add_string b (String.sub blob rest (String.length blob - rest));
    Binio_core.reader (Buffer.contents b)
  in
  let listed = List.init (Int_vec.length free) (Int_vec.get free) in
  checkb "the spliced original decodes" true
    (Online.check_invariant (Online.decode (with_free listed)));
  List.iter
    (fun (what, entries) ->
      match Online.decode (with_free entries) with
      | _ -> Alcotest.failf "free list with %s entry must be refused" what
      | exception Binio_core.Decode_error _ -> ())
    [
      ("an out-of-range", next_vertex :: List.tl listed);
      ("a repeated", List.hd listed :: listed);
      ("a live", (next_vertex - 1) :: List.tl listed);
      ("the initial", 0 :: List.tl listed);
    ]

(* ------------------------------------------------------------------ *)
(* One settings codec for the WAL, snapshots and the checker. *)

(* Every level x timestamp mode x GC policy at one draw of the numbers. *)
let all_settings (num_keys, skew, ceiling) =
  List.concat_map
    (fun level ->
      List.concat_map
        (fun ts ->
          List.map
            (fun gc -> { Online.level; num_keys; skew; ts; gc })
            [ Online.Gc_off; Online.Gc_auto; Online.Gc_words ceiling ])
        [ Ts.Ignore; Ts.Trust; Ts.Verify ])
    [ Checker.SSER; Checker.SER; Checker.SI ]

let encode_settings s =
  let b = Buffer.create 32 in
  Online.add_settings b s;
  Buffer.contents b

(* [num_keys] log-uniform over [1, 2^22], skew and the word ceiling
   including their extremes. *)
let numbers_gen =
  QCheck2.Gen.(
    let* bits = int_range 0 22 in
    let* num_keys = int_range (Stdlib.max 1 ((1 lsl bits) / 2)) (1 lsl bits) in
    let* skew = oneof [ return min_int; return max_int; return 0; int ] in
    let* ceiling =
      oneof
        [
          return 1;
          return max_int;
          (let* bits = int_range 1 61 in
           int_range (1 lsl (bits - 1)) ((1 lsl bits) - 1));
        ]
    in
    return (num_keys, skew, ceiling))

(* The settings come back equal from the codec, from a WAL open record,
   from a poisoned snapshot entry and from a checker's snapshot.  The
   checker path folds [num_keys] into [1, 256]: a checker costs memory
   and time per key, seconds and gigabytes at 2^22. *)
let prop_settings_roundtrip =
  QCheck2.Test.make ~name:"settings: codec, WAL, snapshot, checker round trips"
    ~count:40 numbers_gen (fun numbers ->
      let all = all_settings numbers in
      List.iter
        (fun s ->
          let r = Binio_core.reader (encode_settings s) in
          if Online.read_settings r <> s || not (Binio_core.at_end r) then
            QCheck2.Test.fail_report "codec round trip")
        all;
      let path = temp_name ".wal" in
      let records =
        List.mapi (fun i settings -> Wal.R_open { sid = i + 1; settings }) all
      in
      write_wal path records;
      (match Wal.read_path path with
      | Ok (_, rs, Wal.Complete) when rs = records -> ()
      | _ -> QCheck2.Test.fail_report "WAL round trip");
      Sys.remove path;
      let path = temp_name ".snap" in
      let entries =
        List.mapi
          (fun i settings ->
            {
              Snapshot_store.sid = i + 1;
              last_seq = i;
              state =
                Snapshot_store.Poisoned
                  { settings; anomaly = None; rendered = "r" };
            })
          all
      in
      Snapshot_store.write ~path ~shard:0 ~nshards:1 ~gen:1 ~next_sid:99
        entries;
      (match Snapshot_store.read path with
      | Ok info when info.Snapshot_store.i_entries = entries -> ()
      | _ -> QCheck2.Test.fail_report "snapshot round trip");
      Sys.remove path;
      List.iter
        (fun (s : Online.settings) ->
          let s = { s with num_keys = 1 + ((s.num_keys - 1) mod 256) } in
          let o =
            Online.create ~skew:s.skew ~ts:s.ts ~gc:s.gc ~level:s.level
              ~num_keys:s.num_keys ()
          in
          let b = Buffer.create 1024 in
          Online.encode b o;
          let o' = Online.decode (Binio_core.reader (Buffer.contents b)) in
          if Online.settings o' <> s then
            QCheck2.Test.fail_report "checker round trip")
        all;
      true)

(* Malformed settings are refused as [Decode_error] by the codec, and as
   a corrupt WAL tail or an [Error] by the readers around it — never as
   another exception: every strict prefix, every unknown level, ts and
   GC byte, a zero word ceiling and a key count past {!Online.max_keys}. *)
let test_settings_refused () =
  let refused what bytes =
    match Online.read_settings (Binio_core.reader bytes) with
    | _ -> Alcotest.failf "%s must be refused" what
    | exception Binio_core.Decode_error _ -> ()
  in
  List.iter
    (fun s ->
      let e = encode_settings s in
      for cut = 0 to String.length e - 1 do
        refused (Printf.sprintf "a %d-byte prefix" cut) (String.sub e 0 cut)
      done)
    (all_settings (1 lsl 22, min_int, max_int) @ all_settings (1, 0, 1));
  (* level byte, num_keys 10, skew 0, ts byte, gc byte *)
  let base =
    encode_settings
      { Online.level = Checker.SER; num_keys = 10; skew = 0; ts = Ts.Ignore;
        gc = Online.Gc_off }
  in
  checks "layout" "\001\010\000\000\000" base;
  for b = 3 to 255 do
    List.iter
      (fun (what, at) ->
        let x = Bytes.of_string base in
        Bytes.set x at (Char.chr b);
        refused (Printf.sprintf "%s byte %d" what b) (Bytes.to_string x))
      [ ("level", 0); ("ts", 3); ("gc", 4) ]
  done;
  refused "a zero ceiling" (String.sub base 0 4 ^ "\002\000");
  (* the writers encode what the readers refuse: the readers answer with
     a corrupt tail and an [Error] *)
  List.iter
    (fun (what, settings) ->
      let path = temp_name ".wal" in
      write_wal path [ Wal.R_open { sid = 1; settings } ];
      (match Wal.read_path path with
      | Ok (_, [], Wal.Corrupt _) -> ()
      | _ -> Alcotest.failf "WAL with %s: corrupt tail expected" what);
      Sys.remove path;
      let path = temp_name ".snap" in
      Snapshot_store.write ~path ~shard:0 ~nshards:1 ~gen:1 ~next_sid:2
        [
          {
            Snapshot_store.sid = 1;
            last_seq = 0;
            state =
              Snapshot_store.Poisoned
                { settings; anomaly = None; rendered = "" };
          };
        ];
      (match Snapshot_store.read path with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "snapshot with %s must be refused" what);
      Sys.remove path)
    [
      ( "a zero ceiling",
        { Online.level = Checker.SI; num_keys = 10; skew = 0; ts = Ts.Trust;
          gc = Online.Gc_words 0 } );
      ( "num_keys past max_keys",
        { Online.level = Checker.SER; num_keys = Online.max_keys + 1;
          skew = 0; ts = Ts.Ignore; gc = Online.Gc_off } );
    ]

(* WAL files holding one open record per GC constructor, as the
   previous release wrote them (format v2): each must decode to the same
   settings and re-encode to the same bytes. *)
let pinned_opens =
  [
    ( "6d746377616c310a0400000002000101401651e5070000000103010a000000b06f52ef",
      3,
      { Online.level = Checker.SER; num_keys = 10; skew = 0; ts = Ts.Ignore;
        gc = Online.Gc_off } );
    ( "6d746377616c310a0400000002000101401651e508000000010402ac020d010177721569",
      4,
      { Online.level = Checker.SI; num_keys = 300; skew = -7; ts = Ts.Trust;
        gc = Online.Gc_auto } );
    ( "6d746377616c310a0400000002000101401651e514000000010500808080\
       02ffffffffffffffff7f0202b817dba71d89",
      5,
      { Online.level = Checker.SSER; num_keys = 1 lsl 22; skew = min_int;
        ts = Ts.Verify; gc = Online.Gc_words 3000 } );
  ]

let test_wal_pinned_open_bytes () =
  let of_hex h =
    String.init (String.length h / 2) (fun i ->
        Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))
  in
  List.iter
    (fun (hex, sid, settings) ->
      let bytes = of_hex hex in
      let path = temp_name ".wal" in
      write_file path bytes;
      (match Wal.read_path path with
      | Ok (_, [ Wal.R_open { sid = sid'; settings = s } ], Wal.Complete) ->
          checki "sid" sid sid';
          checkb "same settings" true (s = settings)
      | _ -> Alcotest.fail "pinned WAL must decode to one open record");
      write_wal path [ Wal.R_open { sid; settings } ];
      checkb "re-encodes to the same bytes" true (read_file path = bytes);
      Sys.remove path)
    pinned_opens

(* ------------------------------------------------------------------ *)
(* Restore == fresh feed. *)

let temp_sock =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mtc-persist-%d-%d.sock" (Unix.getpid ()) !ctr)

let with_server ?(config = Server.default_config) f =
  let path = temp_sock () in
  let config = { config with Server.listen = [ Server.A_unix path ] } in
  let t = Server.start config in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () -> f t (Server.A_unix path))

let with_client addr f =
  match Client.connect addr with
  | Error e -> Alcotest.fail ("connect: " ^ e)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.fail (what ^ ": " ^ e)

let fresh_verdict ~level h =
  with_server (fun _ addr ->
      with_client addr (fun c ->
          let sid =
            ok "open" (Client.open_session c ~level ~num_keys:10 ())
          in
          ok "fresh feed" (Client.feed_history c ~sid h)))

(* Fabricate the on-disk state a kill -9 mid-feed leaves behind — a WAL
   holding the open record and the first [cut] feeds, no close — then
   restore it [bounce] extra times (each a graceful start/stop with the
   session never resumed, which forces it through a real checkpoint:
   live sessions through [Online.encode], poisoned ones through their
   stored rendering) before finally resuming and feeding the rest. *)
let resumed_verdict ?(gc = Online.Gc_off) ~level ~shards ~bounce ~cut h dir =
  let logged = List.filteri (fun i _ -> i < cut) (Client.stream_order h) in
  Unix.mkdir dir 0o755;
  write_wal
    (Filename.concat dir "wal-0-1")
    (Wal.R_open
       { sid = 1;
         settings = { level; num_keys = 10; skew = 0; ts = Ts.Ignore; gc } }
    :: List.mapi
         (fun i txn -> Wal.R_feed { sid = 1; seq = i + 1; txn })
         logged);
  let durable =
    { Server.default_config with Server.wal_dir = Some dir; shards }
  in
  for _ = 1 to bounce do
    with_server ~config:durable (fun _ _ -> ())
  done;
  with_server ~config:durable (fun _ addr ->
      with_client addr (fun c ->
          let last = ok "resume" (Client.resume_session c ~sid:1) in
          checki "resume point = logged prefix" cut last;
          ok "resumed feed"
            (Client.feed_history ~resume_from:last c ~sid:1 h)))

let check_verdict_eq name fresh resumed =
  match (fresh, resumed) with
  | Wire.V_ok a, Wire.V_ok b -> checki (name ^ ": accepted count") a b
  | ( Wire.V_violation { anomaly = a1; rendered = r1 },
      Wire.V_violation { anomaly = a2; rendered = r2 } ) ->
      checkb (name ^ ": same anomaly") (a1 = a2) true;
      checks (name ^ ": rendering byte-identical") r1 r2
  | Wire.V_ok _, Wire.V_violation _ ->
      Alcotest.fail (name ^ ": restore found a violation the fresh feed missed")
  | Wire.V_violation _, Wire.V_ok _ ->
      Alcotest.fail (name ^ ": restore lost the violation")

(* The paper's end-to-end guarantee must survive a restart: restoring
   snapshot + WAL tail and feeding the remainder reaches the same
   verdict — and for violations the same rendered counterexample, byte
   for byte — as an uninterrupted feed.  Cases cover clean and faulty
   histories at every level, shard counts different from the writer's,
   and both restore paths (cut before the violation exercises live
   replay; a generous fault rate makes the violation land before the
   cut, exercising poisoned replay and poisoned snapshots). *)
let test_restore_equals_fresh () =
  let cases =
    [
      ("sser clean", Isolation.Strict_serializable, Checker.SSER,
       Fault.No_fault, 1, 0);
      ("ser clean j3", Isolation.Serializable, Checker.SER, Fault.No_fault,
       3, 0);
      ("si clean snapshot", Isolation.Snapshot, Checker.SI, Fault.No_fault,
       2, 1);
      ("si lost-update", Isolation.Snapshot, Checker.SI, Fault.Lost_update 0.2,
       2, 0);
      ("ser lost-update snapshot", Isolation.Snapshot, Checker.SER,
       Fault.Lost_update 0.2, 1, 1);
    ]
  in
  List.iter
    (fun (name, engine, level, fault, shards, bounce) ->
      let h = engine_history ~level:engine ~fault ~seed:5 () in
      let cut = List.length (Client.stream_order h) / 2 in
      let fresh = fresh_verdict ~level h in
      let dir = temp_name ".wal.d" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let resumed = resumed_verdict ~level ~shards ~bounce ~cut h dir in
          check_verdict_eq name fresh resumed))
    cases

(* Restore after watermark GC: a session under an aggressive absolute
   ceiling compacts while the WAL prefix replays, the bounce forces the
   compacted state through a real [Online.encode]/[decode] checkpoint
   (which carries the policy, the floor and the counters), and the
   resumed remainder must still reach the unbounded fresh feed's
   verdict — byte-identical rendering included.  Clean and faulty, at a
   cut early enough that the violation lands after the restore. *)
let test_restore_after_gc () =
  List.iter
    (fun (name, engine, level, fault) ->
      let h = engine_history ~txns:400 ~level:engine ~fault ~seed:9 () in
      let cut = List.length (Client.stream_order h) / 2 in
      let fresh = fresh_verdict ~level h in
      List.iter
        (fun (tag, gc, bounce) ->
          let dir = temp_name ".wal.d" in
          Fun.protect
            ~finally:(fun () -> rm_rf dir)
            (fun () ->
              let resumed =
                resumed_verdict ~gc ~level ~shards:1 ~bounce ~cut h dir
              in
              check_verdict_eq (name ^ " " ^ tag) fresh resumed))
        [
          ("words tail-replay", Online.Gc_words 4096, 0);
          ("words snapshot", Online.Gc_words 4096, 1);
          ("auto snapshot", Online.Gc_auto, 1);
        ])
    [
      ("ser clean", Isolation.Serializable, Checker.SER, Fault.No_fault);
      ("si late lost-update", Isolation.Snapshot, Checker.SI,
       Fault.Lost_update 0.01);
    ]

(* Resume must be refused cleanly when there is nothing to resume. *)
let test_resume_refused () =
  let dir = temp_name ".wal.d" in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      with_server
        ~config:{ Server.default_config with Server.wal_dir = Some dir }
        (fun _ addr ->
          with_client addr (fun c ->
              match Client.resume_session c ~sid:42 with
              | Ok _ -> Alcotest.fail "resume of unknown sid must fail"
              | Error e ->
                  checkb "names the sid" (contains ~sub:"42" e) true)));
  (* and on a server with durability off *)
  with_server (fun _ addr ->
      with_client addr (fun c ->
          checkb "refused without wal_dir"
            (Result.is_error (Client.resume_session c ~sid:1))
            true))

let suite =
  [
    qtest prop_wal_truncation_total;
    ("wal: any bit flip is caught", `Quick, test_wal_bitflip_detected);
    ("snapshot round-trip", `Quick, test_snapshot_roundtrip);
    ("snapshot version/CRC/truncation refused", `Quick,
     test_snapshot_version_mismatch);
    qtest prop_settings_roundtrip;
    ("settings: malformed bytes refused", `Quick, test_settings_refused);
    ("wal: pinned v2 open records", `Quick, test_wal_pinned_open_bytes);
    ("restore == fresh feed (levels x shards)", `Quick,
     test_restore_equals_fresh);
    ("restore after watermark GC == fresh feed", `Quick,
     test_restore_after_gc);
    ("resume refused when unknown or non-durable", `Quick,
     test_resume_refused);
  ]
