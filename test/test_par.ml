(* Tests for the parallel checking path of PR6: sharded inference must
   be bit-identical to the sequential pipeline for any pool size (edge
   order included — the frozen CSR is compared in traversal order, not
   as a sorted multiset), verdicts and rendered counterexamples must be
   byte-identical across -j, the mmap'd Binio source must behave exactly
   like the string reader, and the binary history codec must round-trip
   sequentially and in parallel. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

(* --- sharded inference: representation equality across pool sizes --- *)

(* Edges in CSR traversal order: equal lists <=> equal offsets/targets/
   labels arrays, which is the determinism contract (stronger than the
   multiset equality test_flat already covers). *)
let frozen_edges = function
  | Error e -> Error e
  | Ok d ->
      let c = Deps.freeze d in
      let acc = ref [] in
      for u = 0 to Csr.n c - 1 do
        Csr.iter_succ c u (fun v lab -> acc := (u, lab, v) :: !acc)
      done;
      Ok (List.rev !acc)

let csr_edges ?pool h =
  frozen_edges (Deps.build ?pool ~rt:Deps.Rt_sweep (Index.build ?pool h))

let prop_pool_csr_identical =
  QCheck2.Test.make ~name:"sharded CSR bit-identical for any pool size"
    ~count:25 ~print:Test_flat.print_config Test_flat.config_gen (fun cfg ->
      let h = Test_flat.history_of cfg in
      let base = csr_edges h in
      List.for_all
        (fun size ->
          Pool.with_pool ~size (fun p -> csr_edges ~pool:p h) = base)
        [ 2; 4 ])

(* The user-visible contract of `mtc check -j`: same verdict and same
   rendered counterexample, byte for byte, at every level. *)
let render ?pool level h =
  match Checker.check ?pool level h with
  | Checker.Pass -> "PASS"
  | Checker.Fail v -> Report.render h level v

let prop_pool_report_identical =
  QCheck2.Test.make ~name:"verdict and report byte-identical across -j"
    ~count:25 ~print:Test_flat.print_config Test_flat.config_gen (fun cfg ->
      let h = Test_flat.history_of cfg in
      List.for_all
        (fun level ->
          let base = render level h in
          List.for_all
            (fun size ->
              Pool.with_pool ~size (fun p -> render ~pool:p level h) = base)
            [ 2; 4 ])
        [ Checker.SSER; Checker.SER; Checker.SI ])

(* --- DIVERGENCE screen: one instance for any slicing --- *)

(* Faulty SI engines: lost updates make diverging pairs, lying
   timestamps exercise the deferred index the timestamp modes pass in.
   No pool, a pool of 1 and a pool of 3 cut the key stripes differently;
   all must report the head of the unsliced [find_all]. *)
let prop_divergence_slicing =
  QCheck2.Test.make ~name:"Divergence.find == head of find_all across pools"
    ~count:30
    ~print:(fun (seed, keys, f) -> Printf.sprintf "seed=%d keys=%d fault=%d" seed keys f)
    QCheck2.Gen.(triple (int_range 1 10_000) (int_range 1 12) (int_range 0 3))
    (fun (seed, keys, f) ->
      let fault =
        match f with
        | 0 -> Fault.Lost_update 0.3
        | 1 -> Fault.Ts_skew 0.4
        | 2 -> Fault.Ts_reorder 0.4
        | _ -> Fault.Ts_dup 0.4
      in
      let spec =
        Mt_gen.generate { Mt_gen.default with num_txns = 200; num_keys = keys; seed }
      in
      let db = { Db.level = Isolation.Snapshot; fault; num_keys = keys; seed } in
      let h =
        (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
          .Scheduler.history
      in
      let idx = Index.build h in
      let head =
        match Divergence.find_all idx with [] -> None | i :: _ -> Some i
      in
      Divergence.find idx = head
      && Divergence.find (Index.build_deferred h) = head
      && List.for_all
           (fun size ->
             Pool.with_pool ~size (fun p -> Divergence.find ~pool:p idx) = head)
           [ 1; 3 ])

(* --- Stream_gen: clean by construction --- *)

let stream_history ~txns ~keys ~sessions ~seed =
  let p =
    { Stream_gen.default with num_txns = txns; num_keys = keys;
      num_sessions = sessions; dist = Distribution.Uniform; seed }
  in
  let acc = ref [] in
  Stream_gen.generate p (fun t -> acc := t :: !acc);
  History.of_array ~num_keys:keys ~num_sessions:sessions
    (Array.of_list (History.init_txn ~num_keys:keys :: List.rev !acc))

let prop_stream_gen_clean =
  QCheck2.Test.make ~name:"Stream_gen histories pass SSER" ~count:10
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* keys = int_range 1 50 in
      let* sessions = int_range 1 12 in
      return (seed, keys, sessions))
    ~print:(fun (s, k, se) -> Printf.sprintf "seed=%d keys=%d sessions=%d" s k se)
    (fun (seed, keys, sessions) ->
      let h = stream_history ~txns:400 ~keys ~sessions ~seed in
      Checker.check Checker.SSER h = Checker.Pass)

(* --- Binio.Source.map_file vs the string reader --- *)

let with_tmp_file content f =
  let path = Filename.temp_file "mtc_par" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc content);
      f path)

let test_mmap_matches_string () =
  (* Pseudo-random bytes, larger than a page so the map spans several. *)
  let data =
    String.init 10_000 (fun i -> Char.chr (((i * 131) + (i / 256)) land 0xff))
  in
  with_tmp_file data (fun path ->
      let src = Binio.Source.map_file path in
      checki "mapped length" (String.length data) (Binio.Source.length src);
      (match src with
      | Binio.Source.Map _ -> ()
      | Binio.Source.Str _ -> Alcotest.fail "non-empty file must mmap");
      let rm = Binio.reader_of_source src in
      let rs = Binio.reader data in
      let ok = ref true in
      for _ = 1 to 1_000 do
        if Binio.read_byte rm <> Binio.read_byte rs then ok := false
      done;
      checkb "bytes equal" true !ok;
      checkb "chunk equal" true
        (Binio.read_bytes rm 5_000 = Binio.read_bytes rs 5_000);
      Binio.seek rm 9_990;
      Binio.seek rs 9_990;
      checkb "tail equal after seek" true
        (Binio.read_bytes rm 10 = Binio.read_bytes rs 10);
      checkb "mapped reader at end" true (Binio.at_end rm))

let test_mmap_empty_file () =
  with_tmp_file "" (fun path ->
      let src = Binio.Source.map_file path in
      checki "empty length" 0 (Binio.Source.length src);
      (* a zero-length file cannot be mapped; the source degrades to an
         empty string and every read fails like the string reader's *)
      (match src with
      | Binio.Source.Str "" -> ()
      | _ -> Alcotest.fail "empty file must become Str \"\"");
      let r = Binio.reader_of_source src in
      checkb "read past end raises" true
        (try
           ignore (Binio.read_byte r);
           false
         with Binio.Decode_error _ -> true))

let test_mmap_truncation_matches_string () =
  (* Every prefix of an encoded txn must make both readers do the same
     thing: decode the same value or raise Decode_error. *)
  let buf = Buffer.create 64 in
  Binio.add_txn buf
    (Txn.make ~id:3 ~session:1 ~start_ts:5 ~commit_ts:6
       [ Op.Read (0, 0); Op.Write (1, 1 lsl 40) ]);
  let s = Buffer.contents buf in
  let decode_via r =
    match Binio.read_txn r with
    | t -> Ok t
    | exception Binio.Decode_error _ -> Error ()
  in
  let ok = ref true in
  for cut = 0 to String.length s do
    let frag = String.sub s 0 cut in
    with_tmp_file frag (fun path ->
        let via_map =
          decode_via (Binio.reader_of_source (Binio.Source.map_file path))
        in
        let via_str = decode_via (Binio.reader frag) in
        if via_map <> via_str then ok := false;
        if cut < String.length s && via_map <> Error () then ok := false)
  done;
  checkb "every truncation point agrees with the string reader" true !ok

let test_mmap_varint_page_boundary () =
  (* A multi-byte varint whose bytes straddle the 4096 page boundary. *)
  let v = 123_456_789_012_345 in
  let buf = Buffer.create 5_000 in
  Buffer.add_string buf (String.make 4_093 '\x7f');
  Binio.add_uvarint buf v;
  with_tmp_file (Buffer.contents buf) (fun path ->
      let r = Binio.reader_of_source ~pos:4_093 (Binio.Source.map_file path) in
      checkb "varint decodes across the page boundary" true
        (Binio.read_uvarint r = v))

(* --- the binary history format --- *)

let test_bin_roundtrip () =
  let h = Test_flat.history_of (5, 12, 150, 4, Isolation.Serializable) in
  with_tmp_file "" (fun path ->
      (* A tiny block size forces many blocks, so the parallel loader
         actually has ranges to hand out. *)
      Codec.save_bin ~block_size:7 path h;
      (match Codec.load_bin path with
      | Error e -> Alcotest.fail e
      | Ok h2 ->
          checkb "sequential round-trip" true
            (Codec.to_string h = Codec.to_string h2));
      Pool.with_pool ~size:3 (fun p ->
          match Codec.load_bin ~pool:p path with
          | Error e -> Alcotest.fail e
          | Ok h2 ->
              checkb "parallel round-trip" true
                (Codec.to_string h = Codec.to_string h2));
      match Codec.load path with
      | Error e -> Alcotest.fail e
      | Ok h2 ->
          checkb "auto-sniffed round-trip" true
            (Codec.to_string h = Codec.to_string h2))

let test_bin_faulty_roundtrip () =
  (* Odd seed: the engine runs with a fault, so the file carries aborted
     transactions and real anomalies; the verdict must survive disk. *)
  let h = Test_flat.history_of (7, 8, 150, 4, Isolation.Serializable) in
  with_tmp_file "" (fun path ->
      Codec.save_bin ~block_size:16 path h;
      match Codec.load_bin path with
      | Error e -> Alcotest.fail e
      | Ok h2 ->
          checkb "faulty history round-trips" true
            (Codec.to_string h = Codec.to_string h2);
          checkb "verdict survives the disk round-trip" true
            (Test_flat.outcome_kind (Checker.check Checker.SER h)
            = Test_flat.outcome_kind (Checker.check Checker.SER h2)))

let test_bin_corrupt () =
  let h = Test_flat.history_of (6, 10, 80, 3, Isolation.Serializable) in
  with_tmp_file "" (fun path ->
      Codec.save_bin path h;
      let s = In_channel.with_open_bin path In_channel.input_all in
      let is_error content =
        with_tmp_file content (fun p ->
            match Codec.load_bin p with Error _ -> true | Ok _ -> false)
      in
      checkb "empty file rejected" true (is_error "");
      checkb "bad magic rejected" true
        (is_error ("mtcbin2\n" ^ String.sub s 8 (String.length s - 8)));
      checkb "truncated tail rejected" true
        (is_error (String.sub s 0 (String.length s - 5)));
      checkb "truncated header rejected" true (is_error (String.sub s 0 10));
      let flipped = Bytes.of_string s in
      (* Flip a byte inside the footer offset table: offsets go out of
         bounds or inconsistent, and the loader must say so. *)
      Bytes.set flipped
        (Bytes.length flipped - 14)
        (Char.chr
           (Char.code (Bytes.get flipped (Bytes.length flipped - 14)) lxor 0x7f));
      checkb "corrupted footer rejected" true (is_error (Bytes.to_string flipped)))

let test_bin_writer_validates () =
  with_tmp_file "" (fun path ->
      let w = Codec.Bin_writer.create ~num_keys:4 ~num_sessions:2 path in
      let raises f = try f (); false with Invalid_argument _ -> true in
      checkb "id gap rejected" true
        (raises (fun () ->
             Codec.Bin_writer.add w
               (Txn.make ~id:2 ~session:1 ~start_ts:1 ~commit_ts:2 [])));
      Codec.Bin_writer.add w
        (Txn.make ~id:1 ~session:1 ~start_ts:1 ~commit_ts:2 [ Op.Read (0, 0) ]);
      checkb "session out of range rejected" true
        (raises (fun () ->
             Codec.Bin_writer.add w
               (Txn.make ~id:2 ~session:3 ~start_ts:3 ~commit_ts:4 [])));
      checkb "key out of range rejected" true
        (raises (fun () ->
             Codec.Bin_writer.add w
               (Txn.make ~id:2 ~session:2 ~start_ts:3 ~commit_ts:4
                  [ Op.Write (4, 9) ])));
      Codec.Bin_writer.close w;
      Codec.Bin_writer.close w (* idempotent *);
      match Codec.load_bin path with
      | Error e -> Alcotest.fail e
      | Ok h -> checki "one accepted txn" 2 (Array.length h.History.txns))

let prop_bin_roundtrip =
  QCheck2.Test.make ~name:"bin round-trip == text round-trip (any pool)"
    ~count:20 ~print:Test_flat.print_config Test_flat.config_gen (fun cfg ->
      let h = Test_flat.history_of cfg in
      with_tmp_file "" (fun path ->
          Codec.save_bin ~block_size:13 path h;
          let seq = Codec.load_bin path in
          let par = Pool.with_pool ~size:2 (fun p -> Codec.load_bin ~pool:p path) in
          match (seq, par) with
          | Ok a, Ok b ->
              Codec.to_string a = Codec.to_string h
              && Codec.to_string b = Codec.to_string h
          | _ -> false))

let suite =
  [
    qtest prop_pool_csr_identical;
    qtest prop_pool_report_identical;
    qtest prop_divergence_slicing;
    qtest prop_stream_gen_clean;
    Alcotest.test_case "mmap reader == string reader" `Quick
      test_mmap_matches_string;
    Alcotest.test_case "mmap of empty file" `Quick test_mmap_empty_file;
    Alcotest.test_case "mmap truncation == string truncation" `Quick
      test_mmap_truncation_matches_string;
    Alcotest.test_case "varint across page boundary" `Quick
      test_mmap_varint_page_boundary;
    Alcotest.test_case "bin round-trip (seq, par, sniffed)" `Quick
      test_bin_roundtrip;
    Alcotest.test_case "bin round-trip of a faulty history" `Quick
      test_bin_faulty_roundtrip;
    Alcotest.test_case "bin corrupt inputs rejected" `Quick test_bin_corrupt;
    Alcotest.test_case "bin writer validates input" `Quick
      test_bin_writer_validates;
    qtest prop_bin_roundtrip;
  ]
