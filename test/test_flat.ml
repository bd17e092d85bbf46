(* Tests for the allocation-light inference pipeline: the int-packed
   Flat_index map, Online's version table (including the spill path
   for unpackable pairs) against a Hashtbl model, Int_vec, and the
   dependency builder checked against a brute-force reference written
   from the definitions. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

(* --- Flat_index: raw open-addressing map --- *)

let test_map_basic () =
  let m = Flat_index.create () in
  checki "absent is -1" (-1) (Flat_index.get m 42);
  checkb "absent not mem" false (Flat_index.mem m 42);
  Flat_index.set m 42 7;
  checki "present" 7 (Flat_index.get m 42);
  checkb "present mem" true (Flat_index.mem m 42);
  Flat_index.set m 42 9;
  checki "replaced" 9 (Flat_index.get m 42);
  checki "size counts keys once" 1 (Flat_index.length m)

let test_map_growth () =
  let m = Flat_index.create ~capacity:2 () in
  for k = 0 to 9_999 do
    Flat_index.set m (k * 7) (k + 1)
  done;
  checki "all inserted" 10_000 (Flat_index.length m);
  let ok = ref true in
  for k = 0 to 9_999 do
    if Flat_index.get m (k * 7) <> k + 1 then ok := false
  done;
  checkb "all retrievable after growth" true !ok;
  checki "probe miss after growth" (-1) (Flat_index.get m 3)

let test_map_negative_value_rejected () =
  let m = Flat_index.create () in
  checkb "set -1 rejected" true
    (try
       Flat_index.set m 0 (-1);
       false
     with Invalid_argument _ -> true)

let test_map_adversarial_keys () =
  (* Keys colliding in the low bits stress linear probing. *)
  let m = Flat_index.create ~capacity:4 () in
  for i = 0 to 199 do
    Flat_index.set m (i * 1024) i
  done;
  let ok = ref true in
  for i = 0 to 199 do
    if Flat_index.get m (i * 1024) <> i then ok := false
  done;
  checkb "colliding keys survive" true !ok

(* remove: backward-shift deletion against a Hashtbl model.  Keys from
   a small range in a table that starts at 16 slots make long probe runs
   that wrap around the end; after every set, remove or lookup each key
   of the range must read back what the model holds. *)
let prop_map_remove =
  let keys = 48 in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 300)
        (triple (int_range 0 2) (int_range 0 (keys - 1)) (int_range 0 1000)))
  in
  let print ops =
    String.concat "; "
      (List.map
         (fun (op, k, v) ->
           match op with
           | 0 -> Printf.sprintf "set %d %d" k v
           | 1 -> Printf.sprintf "remove %d" k
           | _ -> Printf.sprintf "get %d" k)
         ops)
  in
  QCheck2.Test.make ~name:"flat map: set/get/remove == Hashtbl" ~count:200
    ~print gen (fun ops ->
      let m = Flat_index.create () in
      let h = Hashtbl.create 16 in
      List.for_all
        (fun (op, k, v) ->
          (match op with
          | 0 ->
              Flat_index.set m k v;
              Hashtbl.replace h k v
          | 1 ->
              Flat_index.remove m k;
              Hashtbl.remove h k
          | _ -> ());
          Flat_index.length m = Hashtbl.length h
          && List.for_all
               (fun k ->
                 Flat_index.get m k
                 = Option.value (Hashtbl.find_opt h k) ~default:(-1))
               (List.init keys Fun.id))
        ops
      &&
      let bound = ref 0 in
      Flat_index.iter m (fun k v ->
          if Hashtbl.find_opt h k = Some v then incr bound);
      !bound = Hashtbl.length h)

(* --- Online.Versions against a Hashtbl model --- *)

module V = Online.Versions

type vop =
  | W of int * int * int * int  (* key, value, tier, txn *)
  | R of int * int * int  (* reader push *)
  | O of int * int * int  (* overwriter push *)
  | E of int * int * int * int  (* extender: key, value, txn, its write *)
  | D of int * int * int  (* death position, packed pairs only *)
  | P of int * int * int  (* timestamp chain push: key, value, commit *)
  | K of int  (* cut every timestamp chain at this S *)
  | C of int  (* compaction, keep predicate seeded by the int *)
  | Roundtrip  (* encode, then continue on the decoded table *)

(* Per pair: the three last-set-wins writer tables, both chains newest
   first, the extender and the death.  A pair is in the model exactly
   when the table has a slot for it.  Per key, beside: the timestamp
   chain as a newest-first list of (commit, pair). *)
type vrec = {
  mutable fin : int option;
  mutable inter : int option;
  mutable ab : int option;
  mutable rd : int list;
  mutable ow : int list;
  mutable ext : (int * int) option;
  mutable dead : int;
}

let packs nk k v = Flat_index.pack_pair ~num_keys:nk k v >= 0

(* Keys one past each end of [0, num_keys) and values that are negative
   or past the packing bound spill; the rest pack. *)
let domain nk =
  let keys = List.init (nk + 2) (fun i -> i - 1) in
  let values =
    [ 0; 1; 2; 3; 4; -1; -3; max_int / nk; (max_int / nk) + 1; max_int - 5;
      max_int ]
  in
  List.concat_map (fun k -> List.map (fun v -> (k, v)) values) keys

let keeps seed (k, v) = Hashtbl.hash (seed, k, v) land 1 = 0

let pair_of_op = function
  | W (k, v, _, _) | R (k, v, _) | O (k, v, _) | E (k, v, _, _) | D (k, v, _)
  | P (k, v, _) ->
      Some (k, v)
  | K _ | C _ | Roundtrip -> None

let roundtrip t =
  let buf = Buffer.create 256 in
  V.encode buf t;
  V.decode (Binio_core.reader (Buffer.contents buf))

(* Run [ops] on a table and on the model, comparing after every op on
   the whole domain, every pair an op names and the [extra] pairs. *)
let run_versions ?(extra = []) nk ops =
  let probes =
    List.sort_uniq compare (domain nk @ List.filter_map pair_of_op ops @ extra)
  in
  let t = ref (V.create ~num_keys:nk) in
  let m : (int * int, vrec) Hashtbl.t = Hashtbl.create 16 in
  let record kv =
    match Hashtbl.find_opt m kv with
    | Some r -> r
    | None ->
        let r =
          { fin = None; inter = None; ab = None; rd = []; ow = []; ext = None;
            dead = -1 }
        in
        Hashtbl.replace m kv r;
        r
  in
  let expected kv =
    match Hashtbl.find_opt m kv with
    | None -> Index.Nobody
    | Some r -> (
        match (r.fin, r.inter, r.ab) with
        | Some id, _, _ -> Index.Final id
        | None, Some id, _ -> Index.Intermediate id
        | None, None, Some id -> Index.Aborted id
        | None, None, None -> Index.Nobody)
  in
  let chain iter s =
    let l = ref [] in
    iter !t s (fun x -> l := x :: !l);
    List.rev !l
  in
  let ts_chains : (int, (int * (int * int)) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let ts_chain k = Option.value (Hashtbl.find_opt ts_chains k) ~default:[] in
  let chained (k, v) = List.exists (fun (_, kv) -> kv = (k, v)) (ts_chain k) in
  let clock = ref 0 in
  let keys = List.sort_uniq compare (List.map fst probes) in
  (* every key's prediction at every start_ts from below the oldest
     commit to above the newest *)
  let predicts () =
    List.for_all
      (fun k ->
        let ok = ref true in
        for ts = -1 to !clock + 1 do
          let expected =
            match List.find_opt (fun (c, _) -> c <= ts) (ts_chain k) with
            | Some (_, (k, v)) -> V.find !t k v
            | None -> -1
          in
          if V.predict !t k ~start_ts:ts <> expected then ok := false
        done;
        !ok)
      keys
  in
  let agrees () =
    predicts ()
    && List.for_all
      (fun ((k, v) as kv) ->
        let s = V.find !t k v in
        V.resolve !t k v = expected kv
        &&
        match Hashtbl.find_opt m kv with
        | None -> s < 0
        | Some r ->
            s >= 0
            && chain V.iter_readers s = r.rd
            && chain V.iter_overwriters s = r.ow
            && (match r.ext with
               | None -> V.extender !t s = -1
               | Some (id, w) ->
                   V.extender !t s = id && V.extender_write !t s = w)
            && V.death !t s = r.dead)
      probes
  in
  List.for_all
    (fun op ->
      (match op with
      | W (k, v, tier, id) ->
          V.write !t k v ~tier id;
          let r = record (k, v) in
          if tier = Index.tier_final then r.fin <- Some id
          else if tier = Index.tier_intermediate then r.inter <- Some id
          else r.ab <- Some id
      | R (k, v, id) ->
          V.push_reader !t (V.slot !t k v) id;
          let r = record (k, v) in
          r.rd <- id :: r.rd
      | O (k, v, id) ->
          V.push_overwriter !t (V.slot !t k v) id;
          let r = record (k, v) in
          r.ow <- id :: r.ow
      | E (k, v, id, w) ->
          V.set_extender !t (V.slot !t k v) id w;
          (record (k, v)).ext <- Some (id, w)
      | D (k, v, pos) ->
          if packs nk k v then begin
            V.kill !t (Flat_index.pack_pair ~num_keys:nk k v) pos;
            (record (k, v)).dead <- pos
          end
      | P (k, v, c) ->
          (* as in a feed, the push follows the version's final write;
             the writer is named after the commit *)
          if not (chained (k, v)) then begin
            V.write !t k v ~tier:Index.tier_final c;
            V.push_chain !t k v ~commit:c;
            (record (k, v)).fin <- Some c;
            Hashtbl.replace ts_chains k ((c, (k, v)) :: ts_chain k);
            clock := c
          end
      | K s ->
          V.cut !t s;
          let rec upto = function
            | [] -> []
            | ((c, _) as node) :: rest ->
                if c <= s then [ node ] else node :: upto rest
          in
          Hashtbl.filter_map_inplace (fun _ l -> Some (upto l)) ts_chains
      | C seed ->
          let pair_of = Hashtbl.create 16 in
          Hashtbl.iter
            (fun (k, v) _ -> Hashtbl.replace pair_of (V.find !t k v) (k, v))
            m;
          V.compact !t (fun s ->
              match Hashtbl.find_opt pair_of s with
              | Some kv -> keeps seed kv
              | None -> true);
          (* the decoder's chain checks first: a broken link could send
             the predictions below round a cycle *)
          ignore (roundtrip !t);
          Hashtbl.filter_map_inplace
            (fun (k, v) r ->
              if packs nk k v && (not (keeps seed (k, v)))
                 && not (chained (k, v))
              then None
              else Some r)
            m
      | Roundtrip -> t := roundtrip !t);
      agrees ())
    ops

let vop_gen nk =
  QCheck2.Gen.(
    let* k, v = oneofl (domain nk) in
    let* id = int_range 1 40 in
    frequency
      [
        (6, map (fun tier -> W (k, v, tier, id)) (int_range 0 2));
        (3, return (R (k, v, id)));
        (3, return (O (k, v, id)));
        (2, map (fun w -> E (k, v, id, w)) (int_range (-5) 5));
        (2, map (fun pos -> D (k, v, pos)) (int_range 0 99));
        (3, map (fun d -> P (k, v, d)) (int_range 0 2));
        (1, map (fun d -> K d) (int_range 0 4));
        (1, map (fun seed -> C seed) (int_range 0 1_000_000));
        (1, return Roundtrip);
      ])

let print_vop = function
  | W (k, v, tier, id) -> Printf.sprintf "W(%d,%d,tier %d,T%d)" k v tier id
  | R (k, v, id) -> Printf.sprintf "R(%d,%d,T%d)" k v id
  | O (k, v, id) -> Printf.sprintf "O(%d,%d,T%d)" k v id
  | E (k, v, id, w) -> Printf.sprintf "E(%d,%d,T%d,%d)" k v id w
  | D (k, v, pos) -> Printf.sprintf "D(%d,%d,@%d)" k v pos
  | P (k, v, c) -> Printf.sprintf "P(%d,%d,ts %d)" k v c
  | K s -> Printf.sprintf "K(%d)" s
  | C seed -> Printf.sprintf "C(%d)" seed
  | Roundtrip -> "Roundtrip"

(* The generator draws a chain push's commit as a step up from the last
   one and a cut's S as a distance below it; make both absolute, so
   pushes come in non-decreasing commit order. *)
let with_clock ops =
  let clock = ref 0 in
  List.map
    (function
      | P (k, v, d) ->
          clock := !clock + d;
          P (k, v, !clock)
      | K d -> K (!clock - d)
      | op -> op)
    ops

let prop_versions_model =
  QCheck2.Test.make ~name:"versions: table == Hashtbl model" ~count:300
    ~print:(fun (nk, ops) ->
      Printf.sprintf "num_keys=%d [%s]" nk
        (String.concat "; " (List.map print_vop ops)))
    QCheck2.Gen.(
      let* nk = int_range 1 6 in
      let* ops = list_size (int_range 1 80) (vop_gen nk) in
      return (nk, with_clock ops))
    (fun (nk, ops) -> run_versions nk ops)

(* Writer tiers on one packed pair: final shadows intermediate shadows
   aborted, whatever the order they are set in. *)
let test_writers_tiers () =
  checkb "tier shadowing" true
    (run_versions 4 ~extra:[ (1, 11); (2, 10) ]
       [ W (1, 10, Index.tier_aborted, 3); W (1, 10, Index.tier_intermediate, 2);
         W (1, 10, Index.tier_final, 1); W (1, 10, Index.tier_aborted, 4) ])

(* Spilled pairs (past the packing bound, negative, and a key outside
   the range) resolve like packed ones, next to a packed one, through a
   compaction and a round trip. *)
let test_writers_spill () =
  let huge = max_int - 5 in
  checkb "unpackable spill" true
    (run_versions 1000 ~extra:[ (6, huge); (3, 43) ]
       [ W (3, huge, Index.tier_final, 7); W (4, -2, Index.tier_intermediate, 8);
         W (5, huge, Index.tier_aborted, 9); W (1000, 1, Index.tier_final, 10);
         W (3, 42, Index.tier_final, 11); C 0; Roundtrip ])

(* A table written column by column, for the decoder's range checks.
   Slot [s] is committed at [s], has no writer unless [writer] names
   one, and is not chained unless [older] says so. *)
let encoded_table ?(num_keys = 4) ?(pair = [ 4 ]) ?writer ?(readers = [ -1 ])
    ?(cells = [ (7, -1) ]) ?older ?(heads = []) ?(spill = []) () =
  let buf = Buffer.create 64 in
  let vec l =
    let v = Int_vec.create 4 in
    List.iter (Int_vec.push v) l;
    Int_vec.encode buf v
  in
  let n = List.length pair in
  Binio_core.add_uvarint buf num_keys;
  vec pair;
  vec (Option.value writer ~default:(List.init n (fun _ -> -1)));
  vec readers;
  vec (List.init n (fun _ -> -1));
  vec (List.init n (fun _ -> -1));
  vec (List.init n (fun _ -> 0));
  vec (List.init n (fun _ -> -1));
  vec (List.init n Fun.id);
  vec (Option.value older ~default:(List.init n (fun _ -> -2)));
  vec (List.map fst cells);
  vec (List.map snd cells);
  Binio_core.add_uvarint buf (List.length heads);
  List.iter
    (fun (k, s) ->
      Binio_core.add_varint buf k;
      Binio_core.add_uvarint buf s)
    heads;
  Binio_core.add_uvarint buf (List.length spill);
  List.iter
    (fun (k, v, s) ->
      Binio_core.add_varint buf k;
      Binio_core.add_varint buf v;
      Binio_core.add_uvarint buf s)
    spill;
  Buffer.contents buf

let test_versions_decode_refuses () =
  let decodes s =
    match V.decode (Binio_core.reader s) with
    | _ -> true
    | exception Binio_core.Decode_error _ -> false
  in
  checkb "well-formed table decodes" true
    (decodes
       (encoded_table ~pair:[ 4; -1 ] ~readers:[ 0; -1 ]
          ~spill:[ (-1, 3, 1) ] ()));
  (* x0 carries two chained versions (slot 1 newest), x1 and the
     spilled x(-1) one each, every one written by a final writer (T10
     to T13); a fault is one [older], head or writer spliced in *)
  let final id = (id lsl 2) lor Index.tier_final in
  let chains ?(older = [ -1; 0; -1; -1 ]) ?(heads = [ (0, 1); (1, 2); (-1, 3) ])
      ?(writer = List.map final [ 10; 11; 12; 13 ]) () =
    encoded_table ~pair:[ 4; 8; 5; -1 ] ~writer ~readers:[ -1; -1; -1; -1 ]
      ~older ~heads ~spill:[ (-1, 3, 3) ] ()
  in
  checkb "well-formed chains decode" true (decodes (chains ()));
  List.iter
    (fun (what, s) -> checkb what false (decodes s))
    [
      ("reader head past the pool", encoded_table ~readers:[ 1 ] ());
      ("cell linking to a newer cell",
       encoded_table ~readers:[ 1 ] ~cells:[ (7, 1); (8, 0) ] ());
      ("cell linking to itself", encoded_table ~cells:[ (7, 0) ] ());
      ("column lengths disagree", encoded_table ~readers:[ -1; -1 ] ());
      ("duplicate packed pair",
       encoded_table ~pair:[ 4; 4 ] ~readers:[ -1; -1 ] ());
      ("spill slot out of range",
       encoded_table ~pair:[ -1 ] ~spill:[ (-1, 3, 5) ] ());
      ("spill entry naming a packed slot",
       encoded_table ~pair:[ 4; -1 ] ~readers:[ -1; -1 ]
         ~spill:[ (-1, 3, 0) ] ());
      ("spill pair that packs",
       encoded_table ~pair:[ -1 ] ~spill:[ (1, 3, 0) ] ());
      ("spill slot without an entry", encoded_table ~pair:[ -1 ] ());
      ("chain link out of range", chains ~older:[ -1; 7; -1; -1 ] ());
      ("chain link to another key's slot",
       chains ~older:[ -1; -2; 0; -1 ] ~heads:[ (1, 2); (-1, 3) ] ());
      ("spilled key's chain linking to another key's slot",
       chains ~older:[ -1; -2; -1; 0 ] ~heads:[ (1, 2); (-1, 3) ] ());
      ("chain link to an unchained slot", chains ~older:[ -2; 0; -1; -1 ] ());
      ("chain linking to itself", chains ~older:[ -2; 1; -1; -1 ] ());
      ("chain head naming an unchained slot",
       chains ~older:[ -1; 0; -2; -1 ] ());
      ("chain head past the table",
       chains ~heads:[ (0, 1); (1, 9); (-1, 3) ] ());
      ("chained slot on no chain", chains ~heads:[ (0, 1); (-1, 3) ] ());
      ("chain out of commit order",
       chains ~older:[ 1; -1; -1; -1 ] ~heads:[ (0, 0); (1, 2); (-1, 3) ] ());
      ("chained slot without a writer",
       chains ~writer:[ final 10; -1; final 12; final 13 ] ());
      ("chained slot with an intermediate writer",
       chains
         ~writer:
           [ final 10; final 11; (12 lsl 2) lor Index.tier_intermediate;
             final 13 ]
         ());
      ("chained spill slot with an aborted writer",
       chains
         ~writer:
           [ final 10; final 11; final 12; (13 lsl 2) lor Index.tier_aborted ]
         ());
    ]

(* --- Int_vec --- *)

let test_int_vec () =
  let v = Int_vec.create 2 in
  for i = 0 to 999 do
    Int_vec.push v (i * 3)
  done;
  checki "length" 1000 (Int_vec.length v);
  checki "get" 297 (Int_vec.get v 99);
  let data = Int_vec.data v in
  checkb "data is the live prefix" true
    (Array.length data >= 1000 && data.(999) = 2997)

(* --- engine histories shared with the other property suites --- *)

let config_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 10_000 in
    let* num_keys = int_range 2 30 in
    let* num_txns = int_range 20 250 in
    let* num_sessions = int_range 1 10 in
    let* level =
      oneofl
        [ Isolation.Snapshot; Isolation.Serializable;
          Isolation.Strict_serializable ]
    in
    return (seed, num_keys, num_txns, num_sessions, level))

let print_config (seed, num_keys, num_txns, num_sessions, level) =
  Printf.sprintf "seed=%d keys=%d txns=%d sessions=%d level=%s" seed num_keys
    num_txns num_sessions (Isolation.name level)

let history_of (seed, num_keys, num_txns, num_sessions, level) =
  (* Odd seeds run a faulty engine so the properties also cover
     histories with real anomalies (cyclic graphs). *)
  let fault = if seed mod 2 = 1 then Fault.Lost_update 0.15 else Fault.No_fault in
  let spec =
    Mt_gen.generate
      { Mt_gen.num_sessions; num_txns; num_keys; dist = Distribution.Uniform;
        seed }
  in
  let db = { Db.level; fault; num_keys; seed } in
  (Scheduler.run ~params:{ Scheduler.default_params with seed } ~db ~spec ())
    .Scheduler.history

let outcome_kind = function
  | Checker.Pass -> 0
  | Checker.Fail (Checker.Intra _) -> 1
  | Checker.Fail (Checker.Diverged _) -> 2
  | Checker.Fail (Checker.Cyclic _) -> 3
  | Checker.Fail (Checker.Malformed _) -> 4

(* --- reference dependency graph, straight from the definitions --- *)

(* Brute-force BUILDDEPENDENCY over transaction ids, written from paper
   Algorithm 1 with no shared code: it reads only the history's
   transaction records and op arrays, and rescans the whole history for
   every relation.  A committed transaction's final write of x is its
   last Write of x; its external read of x is its first op on x when
   that op is a Read.  The first unresolved external read in (id, op
   index) order is the error, as in [Deps.build]. *)

let ref_committed (h : History.t) =
  List.filter
    (fun (t : Txn.t) -> t.status = Txn.Committed)
    (Array.to_list h.txns)

let ref_final_write (t : Txn.t) k =
  Array.fold_left
    (fun acc op ->
      match op with Op.Write (k', v) when k' = k -> Some v | _ -> acc)
    None t.ops

let ref_external_reads (t : Txn.t) =
  let ops = Array.to_list t.ops in
  let on k = function Op.Read (k', _) | Op.Write (k', _) -> k' = k in
  List.concat
    (List.mapi
       (fun i op ->
         match op with
         | Op.Read (k, v)
           when not (List.exists (on k) (List.filteri (fun j _ -> j < i) ops))
           ->
             [ (k, v) ]
         | Op.Read _ | Op.Write _ -> [])
       ops)

(* RT pairs of the naive encoding: every ordered pair of distinct
   committed transactions with T.commit_ts < S.start_ts. *)
let ref_rt_pairs h =
  let c = ref_committed h in
  List.concat_map
    (fun (t : Txn.t) ->
      List.filter_map
        (fun (s : Txn.t) ->
          if t.id <> s.id && t.commit_ts < s.start_ts then Some (t.id, s.id)
          else None)
        c)
    c
  |> List.sort compare

let ref_edges ~rt h =
  let c = ref_committed h in
  (* SO: each committed transaction's nearest committed predecessor in
     its session, or the initial transaction. *)
  let so =
    List.filter_map
      (fun (s : Txn.t) ->
        if s.id = History.init_id then None
        else
          let pred =
            List.fold_left
              (fun acc (t : Txn.t) ->
                if t.session = s.session && t.id < s.id then max acc t.id
                else acc)
              History.init_id c
          in
          Some (pred, Deps.SO, s.id))
      c
  in
  (* WR as (T, x, S): T is a committed transaction other than S whose
     final write of x is S's external read of x. *)
  let unresolved = ref None in
  let wr =
    List.concat_map
      (fun (s : Txn.t) ->
        List.concat_map
          (fun (k, v) ->
            let writers =
              List.filter
                (fun (t : Txn.t) ->
                  t.id <> s.id && ref_final_write t k = Some v)
                c
            in
            if writers = [] && !unresolved = None then
              unresolved :=
                Some (Deps.Unresolved_read { txn = s.id; key = k; value = v });
            List.map (fun (t : Txn.t) -> (t.id, k, s)) writers)
          (ref_external_reads s))
      c
  in
  match !unresolved with
  | Some e -> Error e
  | None ->
      (* WW: the WR edges whose reader also writes x.  RW: S -> U when
         T -WR(x)-> S and T -WW(x)-> U, S <> U. *)
      let ww = List.filter (fun (_, k, s) -> ref_final_write s k <> None) wr in
      let rw =
        List.concat_map
          (fun (t, k, (s : Txn.t)) ->
            List.filter_map
              (fun (t', k', (u : Txn.t)) ->
                if t = t' && k = k' && s.id <> u.id then
                  Some (s.id, Deps.RW k, u.id)
                else None)
              ww)
          wr
      in
      let rt_edges =
        match rt with
        | Deps.Rt_naive ->
            List.map (fun (a, b) -> (a, Deps.RT, b)) (ref_rt_pairs h)
        | Deps.No_rt | Deps.Rt_sweep -> []
      in
      let label lab = List.map (fun (t, k, (s : Txn.t)) -> (t, lab k, s.id)) in
      Ok
        (List.sort compare
           (so
           @ label (fun k -> Deps.WR k) wr
           @ label (fun k -> Deps.WW k) ww
           @ rw @ rt_edges))

(* The engines never leave a read unattributable, so property 1 also
   runs each history with the reads of every 13th transaction rewritten
   to a value nobody writes; several stripes then hold an unresolved
   read, and the first in (id, op index) order must be the error. *)
let with_thin_air_reads seed (h : History.t) =
  let rewrite (t : Txn.t) =
    if t.id mod 13 <> seed mod 13 then t
    else
      let thin_air = function
        | Op.Read (k, _) -> Op.Read (k, -t.id)
        | Op.Write _ as op -> op
      in
      { t with ops = Array.map thin_air t.ops }
  in
  History.make ~num_keys:h.num_keys ~num_sessions:h.num_sessions
    (List.tl (List.map rewrite (Array.to_list h.txns)))

(* The subject: [Deps.build]'s CSR mapped to transaction ids. *)
let deps_edges ~rt h =
  let idx = Index.build h in
  match Deps.build ~rt idx with
  | Error e -> Error e
  | Ok d ->
      let c = Deps.freeze d in
      let id v = (Index.txn_of_vertex idx v).Txn.id in
      let acc = ref [] in
      for u = 0 to Csr.n c - 1 do
        Csr.iter_succ c u (fun v lab -> acc := (id u, lab, id v) :: !acc)
      done;
      Ok (List.sort compare !acc)

(* Transaction pairs joined by a path whose inner vertices are all
   Rt_sweep helpers: the RT relation the sweep encodes. *)
let helper_pairs idx (d : Deps.t) =
  let c = Deps.freeze d in
  let m = d.num_txn_vertices in
  let id v = (Index.txn_of_vertex idx v).Txn.id in
  let pairs = ref [] in
  for u = 0 to m - 1 do
    let seen = Array.make (Csr.n c) false in
    let rec walk x =
      if not seen.(x) then begin
        seen.(x) <- true;
        Csr.iter_succ c x (fun w _ ->
            if w >= m then walk w else pairs := (id u, id w) :: !pairs)
      end
    in
    Csr.iter_succ c u (fun w _ -> if w >= m then walk w)
  done;
  List.sort_uniq compare !pairs

let prop_edges_match_reference =
  QCheck2.Test.make ~name:"deps edges == definitional reference" ~count:60
    ~print:print_config config_gen (fun ((seed, _, _, _, _) as cfg) ->
      let h = history_of cfg in
      List.for_all
        (fun h ->
          List.for_all
            (fun rt -> deps_edges ~rt h = ref_edges ~rt h)
            [ Deps.No_rt; Deps.Rt_naive ])
        [ h; with_thin_air_reads seed h ])

let prop_sweep_encodes_reference_rt =
  QCheck2.Test.make ~name:"rt_sweep paths == reference RT pairs" ~count:60
    ~print:print_config config_gen (fun cfg ->
      let h = history_of cfg in
      let idx = Index.build h in
      match Deps.build ~rt:Deps.Rt_sweep idx with
      | Error e -> ref_edges ~rt:Deps.No_rt h = Error e
      | Ok d -> helper_pairs idx d = ref_rt_pairs h)

(* --- allocation bound --- *)

(* Index + build + freeze of a fixed history.  The seed's list-based
   builder, the former reference for this gate, allocated 5,174,284 B
   here and the CSR builder 2,106,408 B (OCaml 5.1.1, stable over three
   runs); the absolute bound is half the former, as strict as the old
   relative one. *)
let test_build_alloc_bounded () =
  let spec =
    Mt_gen.generate
      { Mt_gen.default with num_txns = 2000; num_keys = 300; seed = 77 }
  in
  let db =
    { Db.level = Isolation.Serializable; fault = Fault.No_fault;
      num_keys = 300; seed = 77 }
  in
  let h = (Scheduler.run ~db ~spec ()).Scheduler.history in
  let build () =
    let idx = Index.build h in
    match Deps.build ~rt:Deps.No_rt idx with
    | Ok d -> ignore (Sys.opaque_identity (Deps.freeze d))
    | Error _ -> Alcotest.fail "unexpected unresolved read"
  in
  (* Minimum of a few runs: Gc.allocated_bytes can absorb counters from
     domains terminated by earlier suites, inflating a single delta. *)
  build () (* warm-up *);
  let best = ref infinity in
  for _ = 1 to 3 do
    let a0 = Gc.allocated_bytes () in
    build ();
    let d = Gc.allocated_bytes () -. a0 in
    if d < !best then best := d
  done;
  if !best > 2_587_142.0 then
    Alcotest.failf "deps build allocated %.0f bytes, expected <= 2587142"
      !best

let suite =
  [
    ("flat map: basic", `Quick, test_map_basic);
    ("flat map: growth", `Quick, test_map_growth);
    ("flat map: negative value rejected", `Quick,
     test_map_negative_value_rejected);
    ("flat map: adversarial keys", `Quick, test_map_adversarial_keys);
    qtest prop_map_remove;
    qtest prop_versions_model;
    ("writers: tier shadowing", `Quick, test_writers_tiers);
    ("writers: unpackable spill", `Quick, test_writers_spill);
    ("versions: decode refuses bad references", `Quick,
     test_versions_decode_refuses);
    ("int_vec: push/get/data", `Quick, test_int_vec);
    qtest prop_edges_match_reference;
    qtest prop_sweep_encodes_reference_rt;
    ("deps: direct build allocates <= half of digraph", `Quick,
     test_build_alloc_bounded);
  ]
