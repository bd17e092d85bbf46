(* Durability tests: WAL reading is total under truncation at every
   byte and under corruption, a generation file's checkpoint is read
   whole or refused (other versions by name), restore refuses by name a
   directory it cannot read and leaves it untouched, a checkpoint
   interrupted by a crash restores as if it never started or as if it
   finished, and a server restored from checkpoint + WAL tail reaches
   verdicts byte-identical to an uninterrupted feed — across isolation
   levels, shard counts and restore paths (pure tail replay vs a full
   Online checkpoint round-trip). *)

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

let write_wal ?(entries = []) path records =
  let w =
    Wal.create ~path ~shard:0 ~nshards:1 ~gen:1 ~next_sid:1 ~sync:Wal.Off
      entries
  in
  List.iter (fun r -> ignore (Wal.append w r)) records;
  Wal.close w

let u32_at s at =
  Char.code s.[at]
  lor (Char.code s.[at + 1] lsl 8)
  lor (Char.code s.[at + 2] lsl 16)
  lor (Char.code s.[at + 3] lsl 24)

(* The end of the length+payload+crc block starting at [at]; the header
   block starts after the 8-byte magic, the checkpoint right after it. *)
let block_end s at = at + 4 + u32_at s at + 4

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

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
        | Ok (_, [], rs, Wal.Complete) -> rs
        | Ok _ -> QCheck2.Test.fail_report "full WAL not Complete"
        | Error e -> QCheck2.Test.fail_report ("full WAL unreadable: " ^ e)
      in
      if full_records <> records then
        QCheck2.Test.fail_report "round-trip disagrees";
      let seen_ok = ref false in
      for cut = 0 to String.length full - 1 do
        write_file path (String.sub full 0 cut);
        match Wal.read_path path with
        | Ok (_, _, rs, tail) ->
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
    | Ok (_, _, rs, tail) ->
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
(* Checkpoints: the head of a generation file. *)

let poisoned sid =
  {
    Wal.sid;
    last_seq = 17;
    state =
      Wal.Poisoned
        {
          settings =
            { Online.level = Checker.SI; num_keys = 10; skew = 0;
              ts = Ts.Ignore; gc = Online.Gc_off };
          anomaly = Some "lost update";
          rendered = "SI violation: boom";
        };
  }

let test_checkpoint_roundtrip () =
  let path = temp_name ".wal" in
  let live = Online.create ~level:Checker.SER ~num_keys:1 () in
  for i = 1 to 5 do
    ignore
      (Online.add_txn live
         (Txn.make ~id:i ~session:1 [ Op.Read (0, i - 1); Op.Write (0, i) ]))
  done;
  let w =
    Wal.create ~path ~shard:1 ~nshards:2 ~gen:3 ~next_sid:10 ~sync:Wal.Off
      [ poisoned 4; { Wal.sid = 9; last_seq = 5; state = Wal.Live live } ]
  in
  checkb "the rename committed the head" false
    (Sys.file_exists (path ^ ".tmp"));
  ignore (Wal.append w (Wal.R_close { sid = 4 }));
  Wal.close w;
  (match Wal.read_path path with
  | Error e -> Alcotest.fail ("read back: " ^ e)
  | Ok (h, entries, records, tail) -> (
      checki "shard" 1 h.Wal.h_shard;
      checki "nshards" 2 h.Wal.h_nshards;
      checki "gen" 3 h.Wal.h_gen;
      checki "next_sid" 10 h.Wal.h_next_sid;
      checkb "the records after the checkpoint" true
        (records = [ Wal.R_close { sid = 4 } ] && tail = Wal.Complete);
      match entries with
      | [ p; { Wal.sid = 9; last_seq = 5; state = Wal.Live o } ] ->
          checkb "poisoned entry verbatim" true (p = poisoned 4);
          checki "live checker's transactions" 5 (Online.txns_seen o);
          checkb "live checker's settings" true
            (Online.settings o = Online.settings live)
      | _ -> Alcotest.fail "want the poisoned then the live entry"));
  Sys.remove path

(* A generation file of another format version must be refused with a
   message that names both versions — even when its header CRC is valid
   — and any tampering that does not fix a CRC must be refused too:
   truncation anywhere before the checkpoint ends, or a flipped byte
   inside it, is an [Error], never half a checkpoint.  Inside a live
   entry, a checker whose free list names an out-of-range, repeated,
   live or initial vertex is refused by {!Online.decode}. *)
let test_checkpoint_refused () =
  let path = temp_name ".wal" in
  write_wal ~entries:[ poisoned 1; poisoned 2 ] path [];
  let full = read_file path in
  let hend = block_end full 8 in
  let cend = block_end full (block_end full hend) in
  checki "the checkpoint ends the file" (String.length full) cend;
  checki "stored version byte" 3 (Char.code full.[12]);
  (* the version is the header payload's leading uvarint; 1 to 7 are
     all single bytes, so patch in place and recompute the header CRC *)
  let with_version v =
    let b = Bytes.of_string full in
    Bytes.set b 12 (Char.chr v);
    let crc = Crc32.string (Bytes.sub_string b 12 (hend - 16)) in
    for i = 0 to 3 do
      Bytes.set b (hend - 4 + i) (Char.chr ((crc lsr (8 * i)) land 0xff))
    done;
    write_file path (Bytes.to_string b)
  in
  List.iter
    (fun v ->
      with_version v;
      match Wal.read_path path with
      | Ok _ -> Alcotest.failf "WAL version %d must be refused" v
      | Error e ->
          checks "names both versions"
            (Printf.sprintf "WAL version %d (this build reads 3)" v)
            e)
    [ 4; 2; 1 ];
  (* the same patch without the CRC fix: caught as corruption *)
  let tampered at =
    let b = Bytes.of_string full in
    Bytes.set b at (Char.chr (Char.code full.[at] lxor 0x40));
    write_file path (Bytes.to_string b);
    Wal.read_path path
  in
  (match tampered 12 with
  | Ok _ -> Alcotest.fail "tampered header must be refused"
  | Error e -> checks "header CRC catches tamper" "bad WAL header" e);
  (match tampered (hend + 6) with
  | Ok _ -> Alcotest.fail "tampered checkpoint must be refused"
  | Error e ->
      checks "checkpoint CRC catches tamper"
        "checkpoint record 1 of 2: CRC mismatch" e);
  (* truncation at every byte up to the checkpoint's end: always a
     clean Error, never a raise *)
  for cut = 0 to cend - 1 do
    write_file path (String.sub full 0 cut);
    match Wal.read_path path with
    | Ok _ -> Alcotest.failf "truncated at %d read Ok" cut
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
   from a poisoned checkpoint entry and from a checker's encoding.  The
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
      let entries =
        List.mapi
          (fun i settings ->
            {
              Wal.sid = i + 1;
              last_seq = i;
              state = Wal.Poisoned { settings; anomaly = None; rendered = "r" };
            })
          all
      in
      let records =
        List.mapi (fun i settings -> Wal.R_open { sid = i + 1; settings }) all
      in
      write_wal ~entries path records;
      (match Wal.read_path path with
      | Ok (_, es, rs, Wal.Complete) when es = entries && rs = records -> ()
      | _ -> QCheck2.Test.fail_report "checkpoint and WAL round trip");
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
      | Ok (_, [], [], Wal.Corrupt _) -> ()
      | _ -> Alcotest.failf "WAL with %s: corrupt tail expected" what);
      write_wal path []
        ~entries:
          [
            {
              Wal.sid = 1;
              last_seq = 0;
              state = Wal.Poisoned { settings; anomaly = None; rendered = "" };
            };
          ];
      (match Wal.read_path path with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "checkpoint with %s must be refused" what);
      Sys.remove path)
    [
      ( "a zero ceiling",
        { Online.level = Checker.SI; num_keys = 10; skew = 0; ts = Ts.Trust;
          gc = Online.Gc_words 0 } );
      ( "num_keys past max_keys",
        { Online.level = Checker.SER; num_keys = Online.max_keys + 1;
          skew = 0; ts = Ts.Ignore; gc = Online.Gc_off } );
    ]

(* WAL files holding one open record per GC constructor, as an earlier
   release wrote them (format v2): the files are refused by name, and
   each open record, behind a v3 header, decodes to the same settings
   and re-encodes to the same bytes. *)
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
  List.iter
    (fun (hex, sid, settings) ->
      let v2 = of_hex hex in
      let path = temp_name ".wal" in
      write_file path v2;
      (match Wal.read_path path with
      | Ok _ -> Alcotest.fail "a v2 file must be refused"
      | Error e ->
          checks "refused by name" "WAL version 2 (this build reads 3)" e);
      let at = block_end v2 8 in
      let record = String.sub v2 at (String.length v2 - at) in
      write_wal path [];
      let head = read_file path in
      write_file path (head ^ record);
      (match Wal.read_path path with
      | Ok (_, [], [ Wal.R_open { sid = sid'; settings = s } ], Wal.Complete)
        ->
          checki "sid" sid sid';
          checkb "same settings" true (s = settings)
      | _ -> Alcotest.fail "pinned record must decode to one open record");
      write_wal path [ Wal.R_open { sid; settings } ];
      checkb "re-encodes to the same bytes" true
        (read_file path = head ^ record);
      Sys.remove path)
    pinned_opens

(* ------------------------------------------------------------------ *)
(* Restore refuses what it cannot read, and touches nothing. *)

let listing dir =
  Array.to_list (Sys.readdir dir)
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let open_dir dir =
  Persist.open_dir ~dir ~nshards:1 ~sync:Wal.Off
    ~render:(fun ~level:_ _ -> Alcotest.fail "no violation during replay")
    ()

let check_refused what dir ~file ~reason =
  let before = listing dir in
  (match open_dir dir with
  | Ok (p, _, _, _) ->
      Persist.close p;
      Alcotest.failf "%s must be refused" what
  | Error e ->
      checks (what ^ ": names the file and why") (file ^ ": " ^ reason) e);
  checkb (what ^ ": directory untouched") true (listing dir = before)

(* Three directories restore would once have dropped silently: a flipped
   byte or a cut inside the newest generation's checkpoint (an older
   generation present too), and the previous two-file layout. *)
let test_restore_refuses () =
  let dir = temp_name ".wal.d" in
  Unix.mkdir dir 0o755;
  let path name = Filename.concat dir name in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      write_wal (path "wal-0-1") (fixture_records 5 ~close:false);
      let w =
        Wal.create ~path:(path "wal-0-2") ~shard:0 ~nshards:1 ~gen:2
          ~next_sid:5 ~sync:Wal.Off [ poisoned 1; poisoned 3 ]
      in
      ignore (Wal.append w (Wal.R_close { sid = 3 }));
      Wal.close w;
      let gen2 = read_file (path "wal-0-2") in
      let hend = block_end gen2 8 in
      let b = Bytes.of_string gen2 in
      Bytes.set b (hend + 6) (Char.chr (Char.code gen2.[hend + 6] lxor 0x40));
      write_file (path "wal-0-2") (Bytes.to_string b);
      check_refused "flipped checkpoint byte" dir ~file:"wal-0-2"
        ~reason:"checkpoint record 1 of 2: CRC mismatch";
      write_file (path "wal-0-2") (String.sub gen2 0 (block_end gen2 hend));
      check_refused "short checkpoint" dir ~file:"wal-0-2"
        ~reason:"checkpoint cut short: 1 of 2 records";
      Sys.remove (path "wal-0-1");
      Sys.remove (path "wal-0-2");
      let hex, _, _ = List.hd pinned_opens in
      write_file (path "wal-0-1") (of_hex hex);
      check_refused "v2 WAL" dir ~file:"wal-0-1"
        ~reason:"WAL version 2 (this build reads 3)";
      (* an empty v6 snapshot: magic, payload, CRC *)
      let payload = "\006\000\001\001\002\000" in
      let crc = Crc32.string payload in
      write_file (path "snap-0-1")
        ("mtcsnp1\n" ^ payload
        ^ String.init 4 (fun i -> Char.chr ((crc lsr (8 * i)) land 0xff)));
      check_refused "two-file layout" dir ~file:"snap-0-1"
        ~reason:
          "snapshot file of the older two-file layout (this build reads \
           checkpoints from wal-* files only)")

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

(* ------------------------------------------------------------------ *)
(* A checkpoint interrupted by a crash. *)

(* A decoded checker need not lay out (or size) its tables as the
   replayed one it was encoded from did, so a live state compares by
   its settings, its transaction count and its invariant; the resumed
   verdict checks the rest. *)
let state_key = function
  | Wal.Live o ->
      `Live (Online.settings o, Online.txns_seen o, Online.check_invariant o)
  | Wal.Poisoned { settings; anomaly; rendered } ->
      `Poisoned (settings, anomaly, rendered)

(* Restore [dir]: its sessions, sid floor and replayed tail records. *)
let restore dir =
  match open_dir dir with
  | Error e -> Alcotest.fail ("restore: " ^ e)
  | Ok (p, entries, next_sid, stats) ->
      Persist.close p;
      ( List.map
          (fun (e : Wal.entry) -> (e.sid, e.last_seq, state_key e.state))
          entries,
        next_sid,
        stats.Persist.rs_frames )

(* A faulty SI history, and generation 1 as a kill -9 leaves it halfway
   to the first violation: the session is live, the violation comes
   after the restore. *)
let late_fault =
  lazy
    (engine_history ~txns:400 ~level:Isolation.Snapshot
       ~fault:(Fault.Lost_update 0.01) ~seed:9 ())

let si =
  { Online.level = Checker.SI; num_keys = 10; skew = 0; ts = Ts.Ignore;
    gc = Online.Gc_off }

let late_cut () =
  let o = Online.of_settings si in
  let rec clean n = function
    | txn :: rest when Online.add_txn o txn = Online.Ok_so_far ->
        clean (n + 1) rest
    | _ -> n
  in
  clean 0 (Client.stream_order (Lazy.force late_fault)) / 2

let write_gen1 dir =
  let logged =
    List.filteri
      (fun i _ -> i < late_cut ())
      (Client.stream_order (Lazy.force late_fault))
  in
  Unix.mkdir dir 0o755;
  write_wal
    (Filename.concat dir "wal-0-1")
    (Wal.R_open { sid = 1; settings = si }
    :: List.mapi (fun i txn -> Wal.R_feed { sid = 1; seq = i + 1; txn }) logged)

(* A crash before the rename leaves generation 1 and a partial
   [wal-0-2.tmp]: restore is restoring generation 1 alone, byte for
   byte, and the leftover head is gone. *)
let test_interrupted_before_rename () =
  let a = temp_name ".wal.d" and b = temp_name ".wal.d" in
  Fun.protect
    ~finally:(fun () -> rm_rf a; rm_rf b)
    (fun () ->
      write_gen1 a;
      write_gen1 b;
      let head = temp_name ".wal" in
      write_wal ~entries:[ poisoned 1; poisoned 7 ] head [];
      let full = read_file head in
      Sys.remove head;
      write_file
        (Filename.concat b "wal-0-2.tmp")
        (String.sub full 0 (String.length full / 2));
      let ra = restore a and rb = restore b in
      checkb "the partial head changes nothing" true (ra = rb);
      let _, _, frames = rb in
      checki "generation 1's tail replayed" (late_cut () + 1) frames;
      checkb "same files, same bytes" true (listing a = listing b))

(* A crash after the rename but before the unlink leaves generation 1
   with its tail beside a complete generation 2 holding the same state:
   restore takes generation 2 (no tail to replay), every session comes
   back with the same state and [last_seq], and the resumed feed's
   verdict is an uninterrupted run's. *)
let test_interrupted_after_rename () =
  let dir = temp_name ".wal.d" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      write_gen1 dir;
      let gen1 = read_file (Filename.concat dir "wal-0-1") in
      let sessions1, next_sid1, frames1 = restore dir in
      checkb "generation 2 committed, generation 1 retired" true
        (List.map fst (listing dir) = [ "wal-0-2" ]);
      write_file (Filename.concat dir "wal-0-1") gen1;
      let sessions, next_sid, frames = restore dir in
      checki "generation 1 replayed its tail" (late_cut () + 1) frames1;
      checki "generation 2 has no tail" 0 frames;
      checkb "same sessions, states and last_seq" true (sessions = sessions1);
      checki "same sid floor" next_sid1 next_sid;
      (match sessions with
      | [ (1, last_seq, `Live _) ] -> checki "resume point" (late_cut ()) last_seq
      | _ -> Alcotest.fail "want session 1, live");
      let h = Lazy.force late_fault in
      let durable = { Server.default_config with Server.wal_dir = Some dir } in
      let resumed =
        with_server ~config:durable (fun _ addr ->
            with_client addr (fun c ->
                let last = ok "resume" (Client.resume_session c ~sid:1) in
                ok "resumed feed"
                  (Client.feed_history ~resume_from:last c ~sid:1 h)))
      in
      check_verdict_eq "after an interrupted checkpoint"
        (fresh_verdict ~level:Checker.SI h)
        resumed)

(* A restart reports what it restored before any resume: the detached
   live session's [live_w] and the server's [live_words] gauge read the
   restored checker's words, and a poisoned session reads 0. *)
let test_restore_reports_live_words () =
  let dir = temp_name ".wal.d" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let records = fixture_records 40 ~close:false in
      Unix.mkdir dir 0o755;
      write_wal ~entries:[ poisoned 2 ] (Filename.concat dir "wal-0-1") records;
      let expected =
        match records with
        | Wal.R_open { settings; _ } :: feeds ->
            let o = Online.of_settings settings in
            List.iter
              (function
                | Wal.R_feed { txn; _ } -> ignore (Online.add_txn o txn)
                | _ -> ())
              feeds;
            Online.live_words o
        | _ -> Alcotest.fail "fixture must open first"
      in
      checkb "the restored checker holds words" true (expected > 0);
      let durable = { Server.default_config with Server.wal_dir = Some dir } in
      with_server ~config:durable (fun t addr ->
          checki "live_words gauge" expected
            (Obs.Gauge.get (Server.metrics t).live_words);
          with_client addr (fun c ->
              match Client.session_stats c with
              | Error e -> Alcotest.fail ("session stats: " ^ e)
              | Ok (ss, _, _) ->
                  let live_w sid =
                    match List.find_opt (fun s -> s.Wire.ss_sid = sid) ss with
                    | Some s -> s.Wire.ss_live_words
                    | None -> Alcotest.failf "restored session %d missing" sid
                  in
                  checki "live session's live_w" expected (live_w 1);
                  checki "poisoned session's live_w" 0 (live_w 2))))

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
    ("checkpoint round-trip", `Quick, test_checkpoint_roundtrip);
    ("checkpoint version/CRC/truncation refused", `Quick,
     test_checkpoint_refused);
    qtest prop_settings_roundtrip;
    ("settings: malformed bytes refused", `Quick, test_settings_refused);
    ("wal: pinned v2 open records", `Quick, test_wal_pinned_open_bytes);
    ("restore refuses an unreadable directory by name", `Quick,
     test_restore_refuses);
    ("restore == fresh feed (levels x shards)", `Quick,
     test_restore_equals_fresh);
    ("restore after watermark GC == fresh feed", `Quick,
     test_restore_after_gc);
    ("interrupted checkpoint: a partial head is ignored", `Quick,
     test_interrupted_before_rename);
    ("interrupted checkpoint: a committed head wins", `Quick,
     test_interrupted_after_rename);
    ("resume refused when unknown or non-durable", `Quick,
     test_resume_refused);
    ("restart reports restored live words", `Quick,
     test_restore_reports_live_words);
  ]
