(* Tests for mtc.history: Op, Txn, History, Mini, Builder, Codec. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let kv = Alcotest.(list (pair int int))

(* --- Op --- *)

let test_op_accessors () =
  checki "key" 3 (Op.key (Op.Read (3, 7)));
  checki "value" 7 (Op.value (Op.Write (3, 7)));
  checkb "is_read" true (Op.is_read (Op.Read (0, 0)));
  checkb "is_write" true (Op.is_write (Op.Write (0, 0)))

let test_op_string_roundtrip () =
  List.iter
    (fun op ->
      match Op.of_string (Op.to_string op) with
      | Some op' -> checkb "roundtrip" true (Op.equal op op')
      | None -> Alcotest.fail "parse failed")
    [ Op.Read (0, 0); Op.Write (12, -3); Op.Read (5, 1_000_000);
      Op.Write (3, max_int); Op.Read (4, min_int) ];
  checkb "trailing garbage rejected" true (Op.of_string "R(x0)=0junk" = None)

let test_op_parse_garbage () =
  checkb "garbage" true (Op.of_string "hello" = None);
  checkb "partial" true (Op.of_string "R(x" = None)

(* One grammar: [-?[0-9]+] ints, the whole string one op. *)
let test_op_strict_grammar () =
  List.iter
    (fun s -> checkb (Printf.sprintf "rejects %S" s) true (Op.of_string s = None))
    [ "R(x0)=0junk"; "R(x0)=0 "; " R(x0)=0"; "W(x0)=1"; "R(x0):=1";
      "R(x+1)=0"; "R(x0)=0x10"; "R(x0)=1_000"; "R(x0)=-"; "R(x)=0";
      "W(x0):=99999999999999999999" ];
  checkb "min_int" true
    (Op.of_string (Printf.sprintf "W(x1):=%d" min_int) = Some (Op.Write (1, min_int)));
  checkb "negative key" true (Op.of_string "R(x-2)=07" = Some (Op.Read (-2, 7)))

(* --- Txn --- *)

let rw_txn =
  Txn.make ~id:1 ~session:1
    [ Op.Read (0, 5); Op.Write (0, 6); Op.Read (1, 7); Op.Write (1, 8) ]

let test_txn_external_reads () =
  Alcotest.check kv "both reads external" [ (0, 5); (1, 7) ]
    (Txn.external_reads rw_txn)

let test_txn_read_after_write_not_external () =
  let t = Txn.make ~id:1 ~session:1 [ Op.Write (0, 1); Op.Read (0, 1) ] in
  Alcotest.check kv "no external reads" [] (Txn.external_reads t)

let test_txn_first_read_wins () =
  let t = Txn.make ~id:1 ~session:1 [ Op.Read (0, 1); Op.Read (0, 2) ] in
  Alcotest.check kv "first read" [ (0, 1) ] (Txn.external_reads t)

let test_txn_final_writes () =
  let t =
    Txn.make ~id:1 ~session:1
      [ Op.Write (0, 1); Op.Write (0, 2); Op.Write (1, 3) ]
  in
  Alcotest.check kv "last write per key" [ (0, 2); (1, 3) ] (Txn.final_writes t)

let test_txn_intermediate_writes () =
  let t =
    Txn.make ~id:1 ~session:1
      [ Op.Write (0, 1); Op.Write (0, 2); Op.Write (1, 3) ]
  in
  Alcotest.check kv "overwritten" [ (0, 1) ] (Txn.intermediate_writes t)

let test_txn_predicates () =
  checkb "reads 0" true (Txn.reads_key rw_txn 0);
  checkb "writes 1" true (Txn.writes_key rw_txn 1);
  checkb "no key 9" false (Txn.reads_key rw_txn 9);
  Alcotest.check Alcotest.(option int) "read_of" (Some 7) (Txn.read_of rw_txn 1);
  Alcotest.check Alcotest.(option int) "write_of" (Some 6) (Txn.write_of rw_txn 0)

let test_txn_keys_order () =
  Alcotest.check (Alcotest.list Alcotest.int) "first occurrence order" [ 0; 1 ]
    (Txn.keys rw_txn)

let test_txn_default_timestamps () =
  let t = Txn.make ~id:9 ~session:1 [] in
  checki "start defaults to id" 9 t.Txn.start_ts;
  checki "commit defaults to start" 9 t.Txn.commit_ts

(* --- Mini --- *)

let mk ops = Txn.make ~id:1 ~session:1 ops

let test_mini_accepts_shapes () =
  List.iter
    (fun (name, ops) -> checkb name true (Mini.is_mini (mk ops)))
    [
      ("r", [ Op.Read (0, 1) ]);
      ("rw", [ Op.Read (0, 1); Op.Write (0, 2) ]);
      ("rr", [ Op.Read (0, 1); Op.Read (1, 2) ]);
      ("rrw", [ Op.Read (0, 1); Op.Read (1, 2); Op.Write (0, 3) ]);
      ( "rrww",
        [ Op.Read (0, 1); Op.Read (1, 2); Op.Write (0, 3); Op.Write (1, 4) ] );
      ( "rwrw",
        [ Op.Read (0, 1); Op.Write (0, 2); Op.Read (1, 3); Op.Write (1, 4) ] );
      (* double write to one read key is still a mini-transaction *)
      ("rww", [ Op.Read (0, 1); Op.Write (0, 2); Op.Write (0, 3) ]);
    ]

let test_mini_rejects () =
  List.iter
    (fun (name, ops) -> checkb name false (Mini.is_mini (mk ops)))
    [
      ("empty", []);
      ("blind write", [ Op.Write (0, 1) ]);
      ("write then read wrong key", [ Op.Read (1, 0); Op.Write (0, 1) ]);
      ("three reads", [ Op.Read (0, 0); Op.Read (1, 0); Op.Read (2, 0) ]);
      ( "three writes",
        [
          Op.Read (0, 0);
          Op.Write (0, 1);
          Op.Write (0, 2);
          Op.Write (0, 3);
        ] );
    ]

let test_mini_shape_of () =
  let shape ops = Mini.shape_of (mk ops) in
  checkb "rw" true (shape [ Op.Read (0, 1); Op.Write (0, 2) ] = Some Mini.RW);
  checkb "rrww" true
    (shape [ Op.Read (0, 1); Op.Read (1, 2); Op.Write (0, 3); Op.Write (1, 4) ]
    = Some Mini.RRWW);
  checkb "rwrw" true
    (shape [ Op.Read (0, 1); Op.Write (0, 2); Op.Read (1, 3); Op.Write (1, 4) ]
    = Some Mini.RWRW);
  checkb "non-template" true
    (shape [ Op.Read (0, 1); Op.Write (0, 2); Op.Write (0, 3) ] = None)

let test_mini_shape_keys () =
  List.iter
    (fun s ->
      let k = Mini.num_keys_of_shape s in
      checkb (Mini.shape_name s) true (k = 1 || k = 2))
    Mini.all_shapes

(* --- History --- *)

let test_history_init_txn () =
  let h = Builder.(history ~keys:3 ~sessions:1 [ txn ~session:1 [ r 0 0 ] ]) in
  let init = History.txn h History.init_id in
  checki "init writes all keys" 3 (Array.length init.Txn.ops);
  checkb "init committed" true (Txn.is_committed init)

let test_history_counts () =
  let h =
    Builder.(
      history ~keys:2 ~sessions:2
        [
          txn ~session:1 [ r 0 0 ];
          txn ~session:2 ~status:Txn.Aborted [ r 1 0 ];
        ])
  in
  checki "num_txns includes init" 3 (History.num_txns h);
  checki "committed includes init" 2 (History.committed_count h)

let test_history_session_chain () =
  let h =
    Builder.(
      history ~keys:1 ~sessions:2
        [
          txn ~session:1 [ r 0 0 ];
          txn ~session:2 [ r 0 0 ];
          txn ~session:1 ~status:Txn.Aborted [ r 0 0 ];
          txn ~session:1 [ r 0 0 ];
        ])
  in
  Alcotest.check (Alcotest.list Alcotest.int) "committed chain skips aborted"
    [ 1; 4 ] (History.session_chain h 1)

let test_history_so_pairs () =
  let h =
    Builder.(
      history ~keys:1 ~sessions:2
        [ txn ~session:1 [ r 0 0 ]; txn ~session:1 [ r 0 0 ]; txn ~session:2 [ r 0 0 ] ])
  in
  let so = History.so_pairs h in
  checkb "init->1" true (List.mem (0, 1) so);
  checkb "1->2" true (List.mem (1, 2) so);
  checkb "init->3" true (List.mem (0, 3) so);
  checkb "no 2->3" false (List.mem (2, 3) so)

let test_history_rt () =
  let h =
    Builder.(
      history ~keys:1 ~sessions:1
        [
          txn ~session:1 ~start:10 ~commit:20 [ r 0 0 ];
          txn ~session:1 ~start:25 ~commit:30 [ r 0 0 ];
          txn ~session:1 ~start:15 ~commit:40 [ r 0 0 ];
        ])
  in
  checkb "1 before 2" true (History.rt_before h 1 2);
  checkb "1 not before 3" false (History.rt_before h 1 3);
  checkb "2 not before 1" false (History.rt_before h 2 1)

let test_history_unique_values_ok () =
  let h =
    Builder.(
      history ~keys:1 ~sessions:2
        [ txn ~session:1 [ r 0 0; w 0 1 ]; txn ~session:2 [ r 0 1; w 0 2 ] ])
  in
  checkb "unique ok" true (History.unique_values h = Ok ())

let test_history_unique_values_dup () =
  let h =
    Builder.(
      history ~keys:1 ~sessions:2
        [ txn ~session:1 [ r 0 0; w 0 1 ]; txn ~session:2 [ r 0 0; w 0 1 ] ])
  in
  checkb "duplicate detected" true (Result.is_error (History.unique_values h))

let test_history_dup_across_aborted () =
  (* Uniqueness also covers aborted transactions' writes. *)
  let h =
    Builder.(
      history ~keys:1 ~sessions:2
        [
          txn ~session:1 ~status:Txn.Aborted [ r 0 0; w 0 1 ];
          txn ~session:2 [ r 0 0; w 0 1 ];
        ])
  in
  checkb "dup with aborted detected" true
    (Result.is_error (History.unique_values h))

let test_history_all_mini () =
  let good =
    Builder.(history ~keys:1 ~sessions:1 [ txn ~session:1 [ r 0 0; w 0 1 ] ])
  in
  checkb "mini ok" true (History.all_mini good = Ok ());
  let bad =
    Builder.(history ~keys:1 ~sessions:1 [ txn ~session:1 [ w 0 1 ] ])
  in
  checkb "blind write rejected" true (Result.is_error (History.all_mini bad))

let test_history_make_bad_session () =
  Alcotest.check_raises "session out of range"
    (Invalid_argument "History.make: T1 has session 5 out of [1,2]") (fun () ->
      ignore
        (History.make ~num_keys:1 ~num_sessions:2
           [ Txn.make ~id:1 ~session:5 [ Op.Read (0, 0) ] ]))

let test_history_make_bad_key () =
  checkb "key out of range" true
    (try
       ignore
         (History.make ~num_keys:1 ~num_sessions:1
            [ Txn.make ~id:1 ~session:1 [ Op.Read (5, 0) ] ]);
       false
     with Invalid_argument _ -> true)

let test_history_make_bad_id () =
  checkb "wrong id" true
    (try
       ignore
         (History.make ~num_keys:1 ~num_sessions:1
            [ Txn.make ~id:7 ~session:1 [ Op.Read (0, 0) ] ]);
       false
     with Invalid_argument _ -> true)

(* --- Builder --- *)

let test_builder_overlap_default () =
  let h =
    Builder.(
      history ~keys:1 ~sessions:2
        [ txn ~session:1 [ r 0 0 ]; txn ~session:2 [ r 0 0 ] ])
  in
  checkb "no RT between overlap txns" false (History.rt_before h 1 2);
  checkb "nor reverse" false (History.rt_before h 2 1)

let test_builder_sequential () =
  let h =
    Builder.(
      history ~keys:1 ~sessions:2 ~rt:`Sequential
        [ txn ~session:1 [ r 0 0 ]; txn ~session:2 [ r 0 0 ] ])
  in
  checkb "list order is RT" true (History.rt_before h 1 2)

(* --- Codec --- *)

let sample_history =
  Builder.(
    history ~keys:2 ~sessions:2
      [
        txn ~session:1 ~start:3 ~commit:9 [ r 0 0; w 0 1 ];
        txn ~session:2 ~status:Txn.Aborted ~start:4 ~commit:5 [ r 1 0 ];
      ])

let test_codec_roundtrip () =
  match Codec.of_string (Codec.to_string sample_history) with
  | Ok h' ->
      checks "same serialization" (Codec.to_string sample_history)
        (Codec.to_string h');
      checki "keys" sample_history.History.num_keys h'.History.num_keys;
      checki "txns" (History.num_txns sample_history) (History.num_txns h')
  | Error e -> Alcotest.fail e

let test_codec_bad_magic () =
  checkb "bad magic" true (Result.is_error (Codec.of_string "nonsense"))

let test_codec_bad_txn_line () =
  let s = "mtc-history v1\nkeys 1\nsessions 1\ntxn x y z\n" in
  checkb "bad line" true (Result.is_error (Codec.of_string s))

(* Malformed inputs must yield [Error] naming the offending 1-based
   line of the original input — comments and blank lines count. *)
let test_codec_error_lines () =
  let expect input sub =
    match Codec.of_string input with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" input)
    | Error e ->
        let contains sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        checkb (Printf.sprintf "%S in error %S" sub e) true (contains sub e)
  in
  expect "" "empty input";
  expect "nonsense\n" "line 1";
  expect "mtc-history v1\nkeys 1\n" "truncated header";
  expect "mtc-history v1\nkeys one\nsessions 1\n" "line 2";
  expect "mtc-history v1\nkeys 1\nsessions 1\ntxn x y z\n" "line 4";
  expect "mtc-history v1\nkeys 1\nsessions 1\ntxn 1 1 X 1 1 R(x0)=0\n"
    "bad status";
  expect "mtc-history v1\nkeys 1\nsessions 1\ntxn 1 1 C 1 1 R(x0\n"
    "bad operation";
  (* comments shift the physical line of the bad txn to 6 *)
  expect "mtc-history v1\n# a comment\nkeys 1\n\nsessions 1\ntxn 1 1 C 1 1 Q\n"
    "line 6";
  expect
    "mtc-history v1\nkeys 1\nsessions 1\ntxn 1 1 C 1 1 R(x0)=0\ntxn 1 1 C 2 2 W(x0):=1\n"
    "duplicate txn id 1";
  expect
    "mtc-history v1\nkeys 1\nsessions 1\ntxn 2 1 C 1 1 R(x0)=0\n"
    "out of order";
  expect "mtc-history v1\nkeys 1\nsessions 1\ntxn 1 5 C 1 1 R(x0)=0\n"
    "session 5 out of";
  expect "mtc-history v1\nkeys 1\nsessions 1\ntxn 1 1 C 1 1 R(x7)=0\n"
    "key 7 out of"

let parse_ok input =
  match Codec.of_string input with
  | Ok h -> h
  | Error e -> Alcotest.failf "rejected %S: %s" input e

let sample_text = Codec.to_string sample_history

(* CRLF endings and surrounding whitespace are [String.trim]med away;
   indented comments are skipped but still count as lines. *)
let test_codec_whitespace () =
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' sample_text)
  in
  checks "CRLF" sample_text (Codec.to_string (parse_ok crlf));
  let padded =
    String.concat "\n"
      (List.map
         (fun l -> if l = "" then l else " \t" ^ l ^ "  \t")
         (String.split_on_char '\n' sample_text))
  in
  checks "leading/trailing whitespace" sample_text
    (Codec.to_string (parse_ok padded));
  let commented =
    "mtc-history v1\n   # indented comment\nkeys 1\n\t# tab comment\n\
     sessions 1\n  #txn 1 1 C 1 1 junk\ntxn 1 1 C 1 1 R(x0)=0\n"
  in
  checki "comments skipped" 2 (History.num_txns (parse_ok commented));
  match Codec.of_string (commented ^ "  # ok\ntxn 2 1 C 2 2 Q\n") with
  | Ok _ -> Alcotest.fail "accepted a bad op"
  | Error e -> checks "line counts comments" "line 9: bad operation \"Q\"" e

let test_codec_empty_txn () =
  let input = "mtc-history v1\nkeys 1\nsessions 1\ntxn 1 1 C 1 1\n" in
  let h = parse_ok input in
  checki "no ops" 0 (Array.length (History.txn h 1).Txn.ops);
  checks "round-trip" input (Codec.to_string h)

(* Tokens beyond 63 bits are errors on their line, not exceptions. *)
let test_codec_int_overflow () =
  let header = "mtc-history v1\nkeys 1\nsessions 1\n" in
  List.iter
    (fun (line, want) ->
      match Codec.of_string (header ^ line ^ "\n") with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error e -> checks line want e)
    [
      ( "txn 99999999999999999999 1 C 1 1 R(x0)=0",
        "line 4: bad txn id \"99999999999999999999\"" );
      ( "txn 1 1 C 4611686018427387904 1 R(x0)=0",
        "line 4: bad start_ts \"4611686018427387904\"" );
      ( "txn 1 1 C 1 1 R(x0)=-4611686018427387905",
        "line 4: bad operation \"R(x0)=-4611686018427387905\"" );
    ];
  match Codec.of_string "mtc-history v1\nkeys 18446744073709551616\nsessions 1\n" with
  | Ok _ -> Alcotest.fail "accepted an overflowing key count"
  | Error e -> checks "header" "line 2: bad keys count \"18446744073709551616\"" e

let test_codec_negative_timestamps () =
  let input =
    Printf.sprintf
      "mtc-history v1\nkeys 1\nsessions 1\ntxn 1 1 C -5 -3 R(x0)=0\n\
       txn 2 1 A %d -1 R(x0)=0\n"
      min_int
  in
  let h = parse_ok input in
  checki "start_ts" (-5) (History.txn h 1).Txn.start_ts;
  checki "min_int start_ts" min_int (History.txn h 2).Txn.start_ts;
  checks "round-trip" input (Codec.to_string h)

let qtest = QCheck_alcotest.to_alcotest

(* The text form is canonical: re-serializing a parse reproduces the
   input byte for byte, skewed timestamps included. *)
let prop_codec_stream_roundtrip =
  QCheck2.Test.make ~name:"codec to_string (of_string s) = s on Stream_gen"
    ~count:20
    ~print:(fun (seed, keys, skew) ->
      Printf.sprintf "seed=%d keys=%d skew=%d" seed keys skew)
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 1 40) (int_range 1 50))
    (fun (seed, keys, skew) ->
      let p =
        { Stream_gen.default with num_txns = 300; num_keys = keys;
          num_sessions = 4; seed; ts_skew = skew }
      in
      let acc = ref [] in
      Stream_gen.generate p (fun t -> acc := t :: !acc);
      let s =
        Codec.to_string
          (History.make ~num_keys:keys ~num_sessions:4 (List.rev !acc))
      in
      match Codec.of_string s with
      | Ok h -> Codec.to_string h = s
      | Error _ -> false)

(* Mangling a valid serialization never makes the parser raise. *)
let prop_codec_total =
  let base = Codec.to_string sample_history in
  QCheck2.Test.make ~name:"codec parsing never raises" ~count:500
    ~print:(fun (cut, flips) ->
      Printf.sprintf "cut=%d flips=%d" cut (List.length flips))
    QCheck2.Gen.(
      let* cut = int_range 0 (String.length base) in
      let* flips =
        list_size (int_range 0 4)
          (pair (int_range 0 (String.length base - 1)) (int_range 0 255))
      in
      return (cut, flips))
    (fun (cut, flips) ->
      let b = Bytes.of_string (String.sub base 0 cut) in
      List.iter
        (fun (pos, v) ->
          if pos < Bytes.length b then Bytes.set b pos (Char.chr v))
        flips;
      match Codec.of_string (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

(* Text round-trip on engine-produced histories, not just the sample. *)
let prop_codec_roundtrip_engine =
  QCheck2.Test.make ~name:"codec round-trip on engine histories" ~count:15
    ~print:string_of_int (QCheck2.Gen.int_range 1 10_000)
    (fun seed ->
      let spec =
        Mt_gen.generate
          { Mt_gen.default with num_txns = 60; num_keys = 6; seed }
      in
      let db =
        { Db.level = Isolation.Snapshot; fault = Fault.No_fault;
          num_keys = 6; seed }
      in
      let h =
        (Scheduler.run
           ~params:{ Scheduler.default_params with seed }
           ~db ~spec ())
          .Scheduler.history
      in
      match Codec.of_string (Codec.to_string h) with
      | Ok h' -> Codec.to_string h' = Codec.to_string h
      | Error _ -> false)

(* --- the duplicate-value screen against the seed's --- *)

(* The seed's striped hashtable screen, verbatim: the reference that
   [History.unique_values] must reproduce, message and all. *)
let uv_stripes = 8

let reference_unique_values ?pool (h : History.t) =
  let results =
    Pool.map_slices pool ~n:uv_stripes (fun lo hi ->
        let best = ref None in
        for stripe = lo to hi - 1 do
          let seen = Hashtbl.create 1024 in
          let exception Dup in
          try
            Array.iteri
              (fun ti (t : Txn.t) ->
                Array.iteri
                  (fun oi op ->
                    match op with
                    | Op.Write (k, v) when k mod uv_stripes = stripe -> (
                        match Hashtbl.find_opt seen (k, v) with
                        | Some other when other <> t.id ->
                            let msg =
                              Printf.sprintf
                                "writes of value %d to key %d by both T%d and \
                                 T%d"
                                v k other t.id
                            in
                            (match !best with
                            | Some (bt, bo, _)
                              when bt < ti || (bt = ti && bo < oi) ->
                                ()
                            | Some _ | None -> best := Some (ti, oi, msg));
                            raise Dup
                        | Some _ | None -> Hashtbl.replace seen (k, v) t.id)
                    | Op.Write _ | Op.Read _ -> ())
                  t.ops)
              h.txns
          with Dup -> ()
        done;
        !best)
  in
  let best =
    Array.fold_left
      (fun acc hit ->
        match (acc, hit) with
        | None, hit -> hit
        | Some _, None -> acc
        | Some (at, ao, _), Some (bt, bo, _) ->
            if bt < at || (bt = at && bo < ao) then hit else acc)
      None results
  in
  match best with None -> Ok () | Some (_, _, msg) -> Error msg

let test_history_dup_sort_path () =
  (* x0's values go 5, 3, 5: not increasing, so the sort path decides,
     and it names the value's first writer. *)
  let h =
    Builder.(
      history ~keys:1 ~sessions:3
        [
          txn ~session:1 [ w 0 5 ];
          txn ~session:2 [ w 0 3 ];
          txn ~session:3 [ w 0 5 ];
          txn ~session:1 [ w 0 5 ];
        ])
  in
  checkb "first writer named" true
    (History.unique_values h
    = Error "writes of value 5 to key 0 by both T1 and T3");
  let once_twice =
    Builder.(history ~keys:1 ~sessions:1 [ txn ~session:1 [ w 0 5; w 0 5 ] ])
  in
  checkb "one txn writing a value twice is no duplicate" true
    (History.unique_values once_twice = Ok ())

(* A small Stream_gen history bent to reach every path of the screen:
   ~10% aborted transactions; [repeats] transactions that write one
   value twice (never a duplicate); [remap] 0 keeps each key's values
   increasing, 1 reverses them on even keys and 2 on every key; and
   [dups] planted duplicates, where a later committed-final,
   intermediate or aborted write takes the value of an earlier write to
   the same key. *)
type dup_case = {
  seed : int;
  txns : int;
  keys : int;
  remap : int;
  repeats : int;
  dups : int;
}

let print_dup_case c =
  Printf.sprintf "seed=%d txns=%d keys=%d remap=%d repeats=%d dups=%d" c.seed
    c.txns c.keys c.remap c.repeats c.dups

let dup_case_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 100_000 in
    let* txns = int_range 2 120 in
    let* keys = int_range 1 12 in
    let* remap = int_range 0 2 in
    let* repeats = int_range 0 2 in
    let* dups = int_range 0 3 in
    return { seed; txns; keys; remap; repeats; dups })

let dup_history c =
  let rng = Rng.create c.seed in
  let acc = ref [] in
  Stream_gen.generate
    { Stream_gen.default with num_txns = c.txns; num_keys = c.keys;
      num_sessions = 4; seed = c.seed }
    (fun t -> acc := t :: !acc);
  let base =
    Array.of_list (History.init_txn ~num_keys:c.keys :: List.rev !acc)
  in
  let aborted =
    Array.map (fun (t : Txn.t) -> t.id > 0 && Rng.chance rng 0.1) base
  in
  let remap k v =
    if c.remap = 2 || (c.remap = 1 && k mod 2 = 0) then 1_000_000 - v else v
  in
  let ops =
    Array.map
      (fun (t : Txn.t) ->
        Array.map
          (function
            | Op.Write (k, v) -> Op.Write (k, remap k v)
            | Op.Read (k, v) -> Op.Read (k, remap k v))
          t.ops)
      base
  in
  let insert ti oi op =
    let a = ops.(ti) in
    ops.(ti) <-
      Array.concat
        [ Array.sub a 0 oi; [| op |]; Array.sub a oi (Array.length a - oi) ]
  in
  (* every write (ti, oi, k, v) of a transaction past [from] *)
  let writes ~from =
    List.concat
      (List.init (Array.length ops) (fun ti ->
           if ti < from then []
           else
             List.concat
               (List.mapi
                  (fun oi op ->
                    match op with
                    | Op.Write (k, v) -> [ (ti, oi, k, v) ]
                    | Op.Read _ -> [])
                  (Array.to_list ops.(ti)))))
  in
  for _ = 1 to c.repeats do
    match writes ~from:1 with
    | [] -> ()
    | ws ->
        let ti, oi, k, v = Rng.pick_list rng ws in
        insert ti oi (Op.Write (k, v))
  done;
  for _ = 1 to c.dups do
    match writes ~from:1 with
    | [] -> ()
    | ws -> (
        let ti, oi, k, _ = Rng.pick_list rng ws in
        let earlier =
          List.filter (fun (tj, _, kj, _) -> tj < ti && kj = k) (writes ~from:0)
        in
        let _, _, _, v = Rng.pick_list rng earlier in
        match Rng.int rng 3 with
        | 0 -> ops.(ti).(oi) <- Op.Write (k, v)
        | 1 -> insert ti oi (Op.Write (k, v))
        | _ ->
            ops.(ti).(oi) <- Op.Write (k, v);
            aborted.(ti) <- true)
  done;
  History.of_array ~num_keys:c.keys ~num_sessions:4
    (Array.mapi
       (fun i (t : Txn.t) ->
         Txn.make ~id:t.id ~session:t.session
           ~status:(if aborted.(i) then Txn.Aborted else t.status)
           ~start_ts:t.start_ts ~commit_ts:t.commit_ts
           (Array.to_list ops.(i)))
       base)

let render_ts ts h =
  match Checker.check_report ~ts Checker.SER h with
  | Checker.Pass, _ -> "PASS"
  | Checker.Fail v, _ -> Report.render h Checker.SER v

let prop_unique_values_reference =
  QCheck2.Test.make ~name:"unique_values == the seed's hashtable screen"
    ~count:300 ~print:print_dup_case dup_case_gen (fun c ->
      let h = dup_history c in
      let expected = reference_unique_values h in
      let verify =
        match Ts.build ~mode:Ts.Verify (Index.build_deferred h) with
        | Ok _ -> Ok ()
        | Error msg -> Error msg
      in
      (c.dups > 0 || expected = Ok ())
      && History.unique_values h = expected
      && List.for_all
           (fun size ->
             Pool.with_pool ~size (fun p -> History.unique_values ~pool:p h)
             = expected)
           [ 2; 4 ]
      && verify = expected
      && render_ts Ts.Ignore h = render_ts Ts.Verify h)

let test_codec_file_roundtrip () =
  let path = Filename.temp_file "mtc_test" ".hist" in
  Codec.save path sample_history;
  (match Codec.load path with
  | Ok h' ->
      checks "file roundtrip" (Codec.to_string sample_history)
        (Codec.to_string h')
  | Error e -> Alcotest.fail e);
  Sys.remove path

(* --- Txn projections against the seed's hashtable folds --- *)

(* Verbatim copies of the folds every projection used before the short
   arrays switched to rescans: the reference the rescans must match,
   value and first-occurrence order alike. *)
module Fold = struct
  let external_reads (t : Txn.t) =
    let written = Hashtbl.create 4 in
    let seen = Hashtbl.create 4 in
    let acc = ref [] in
    Array.iter
      (fun op ->
        match op with
        | Op.Write (k, _) -> Hashtbl.replace written k ()
        | Op.Read (k, v) ->
            if (not (Hashtbl.mem written k)) && not (Hashtbl.mem seen k) then begin
              Hashtbl.replace seen k ();
              acc := (k, v) :: !acc
            end)
      t.ops;
    List.rev !acc

  let final_writes (t : Txn.t) =
    let last = Hashtbl.create 4 in
    let order = ref [] in
    Array.iter
      (fun op ->
        match op with
        | Op.Write (k, v) ->
            if not (Hashtbl.mem last k) then order := k :: !order;
            Hashtbl.replace last k v
        | Op.Read _ -> ())
      t.ops;
    List.rev_map (fun k -> (k, Hashtbl.find last k)) !order

  let intermediate_writes (t : Txn.t) =
    let final = Hashtbl.create 4 in
    List.iter (fun (k, v) -> Hashtbl.replace final k v) (final_writes t);
    let acc = ref [] in
    Array.iter
      (fun op ->
        match op with
        | Op.Write (k, v) when Hashtbl.find final k <> v -> acc := (k, v) :: !acc
        | Op.Write _ | Op.Read _ -> ())
      t.ops;
    List.rev !acc

  let read_of t k = List.assoc_opt k (external_reads t)
  let write_of t k = List.assoc_opt k (final_writes t)
  let reads_key t k = read_of t k <> None
  let writes_key t k = write_of t k <> None
end

(* 0-12 ops over 3 keys and 3 values, so keys and values repeat and the
   lengths fall on both sides of the rescan cut. *)
let prop_projections_reference =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 12)
        (let* w = bool in
         let* k = int_range 0 2 in
         let* v = int_range 0 2 in
         return (if w then Op.Write (k, v) else Op.Read (k, v))))
  in
  let print ops = String.concat " " (List.map Op.to_string ops) in
  QCheck2.Test.make ~name:"txn projections == hashtable folds" ~count:1000
    ~print gen (fun ops ->
      let t = Txn.make ~id:1 ~session:1 ops in
      Txn.external_reads t = Fold.external_reads t
      && Txn.final_writes t = Fold.final_writes t
      && Txn.intermediate_writes t = Fold.intermediate_writes t
      && List.for_all
           (fun k ->
             Txn.read_of t k = Fold.read_of t k
             && Txn.write_of t k = Fold.write_of t k
             && Txn.reads_key t k = Fold.reads_key t k
             && Txn.writes_key t k = Fold.writes_key t k)
           [ 0; 1; 2; 3 ])

let suite =
  [
    ("op accessors", `Quick, test_op_accessors);
    ("op string roundtrip", `Quick, test_op_string_roundtrip);
    ("op parse garbage", `Quick, test_op_parse_garbage);
    ("op strict grammar", `Quick, test_op_strict_grammar);
    ("txn external reads", `Quick, test_txn_external_reads);
    ("txn read-after-write not external", `Quick, test_txn_read_after_write_not_external);
    ("txn first read wins", `Quick, test_txn_first_read_wins);
    ("txn final writes", `Quick, test_txn_final_writes);
    ("txn intermediate writes", `Quick, test_txn_intermediate_writes);
    ("txn predicates", `Quick, test_txn_predicates);
    ("txn keys order", `Quick, test_txn_keys_order);
    ("txn default timestamps", `Quick, test_txn_default_timestamps);
    qtest prop_projections_reference;
    ("mini accepts the seven shapes", `Quick, test_mini_accepts_shapes);
    ("mini rejects non-MTs", `Quick, test_mini_rejects);
    ("mini shape_of", `Quick, test_mini_shape_of);
    ("mini shapes have 1-2 keys", `Quick, test_mini_shape_keys);
    ("history init transaction", `Quick, test_history_init_txn);
    ("history counts", `Quick, test_history_counts);
    ("history session chain skips aborted", `Quick, test_history_session_chain);
    ("history so_pairs", `Quick, test_history_so_pairs);
    ("history real-time order", `Quick, test_history_rt);
    ("history unique values ok", `Quick, test_history_unique_values_ok);
    ("history duplicate values", `Quick, test_history_unique_values_dup);
    ("history duplicate across aborted", `Quick, test_history_dup_across_aborted);
    ("history duplicate on the sort path", `Quick, test_history_dup_sort_path);
    qtest prop_unique_values_reference;
    ("history all_mini", `Quick, test_history_all_mini);
    ("history rejects bad session", `Quick, test_history_make_bad_session);
    ("history rejects bad key", `Quick, test_history_make_bad_key);
    ("history rejects bad id", `Quick, test_history_make_bad_id);
    ("codec errors carry line numbers", `Quick, test_codec_error_lines);
    qtest prop_codec_total;
    qtest prop_codec_roundtrip_engine;
    ("builder overlap default", `Quick, test_builder_overlap_default);
    ("builder sequential rt", `Quick, test_builder_sequential);
    ("codec roundtrip", `Quick, test_codec_roundtrip);
    ("codec bad magic", `Quick, test_codec_bad_magic);
    ("codec bad txn line", `Quick, test_codec_bad_txn_line);
    ("codec file roundtrip", `Quick, test_codec_file_roundtrip);
    ("codec CRLF, whitespace and comments", `Quick, test_codec_whitespace);
    ("codec txn with no ops", `Quick, test_codec_empty_txn);
    ("codec int overflow rejected", `Quick, test_codec_int_overflow);
    ("codec negative timestamps", `Quick, test_codec_negative_timestamps);
    qtest prop_codec_stream_roundtrip;
  ]
