type result = { ok : bool; reason : string }

(* ------------------------------------------------------------------ *)
(* Cycle criteria shared by both modes: SER forbids any cycle over
   dep ∪ anti; SI forbids cycles without two adjacent anti edges, checked
   on the {T_d, T_r} product graph (see Polysi). *)

type kind = Kdep | Kanti

let forbidden_cycle ~(level : Checker.level) ~n edges =
  match level with
  | Checker.SER ->
      let g = Csr.of_edges ~n (List.map (fun (_k, u, v) -> (u, (), v)) edges) in
      Option.is_some (Cycle.find_csr g)
  | Checker.SI ->
      let g =
        Csr.of_edges ~n:(2 * n)
          (List.concat_map
             (fun (k, u, v) ->
               match k with
               | Kdep -> [ (2 * u, (), 2 * v); ((2 * u) + 1, (), 2 * v) ]
               | Kanti -> [ (2 * u, (), (2 * v) + 1) ])
             edges)
      in
      Option.is_some (Cycle.find_csr g)
  | Checker.SSER -> invalid_arg "Elle: SSER unsupported"

(* ------------------------------------------------------------------ *)
(* List-append mode. *)

let check_append ~level (log : Elle_log.t) =
  let committed = Elle_log.committed log in
  (* Dense vertices: 0 = init, then committed transactions. *)
  let vertex : (int, int) Hashtbl.t = Hashtbl.create 256 in
  List.iteri
    (fun i (t : Elle_log.txn) -> Hashtbl.replace vertex t.id (i + 1))
    committed;
  let n = List.length committed + 1 in
  (* Appender of each element, across all transactions. *)
  let appender : (Op.key * int, int * Elle_log.status) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.iter
    (fun (t : Elle_log.txn) ->
      List.iter
        (fun op ->
          match op with
          | Elle_log.Append (k, e) ->
              Hashtbl.replace appender (k, e) (t.id, t.status)
          | Elle_log.Read_list _ -> ())
        t.ops)
    log.Elle_log.txns;
  let fail reason = { ok = false; reason } in
  let exception Bad of string in
  try
    (* Screen: aborted / thin-air elements, duplicates within a list. *)
    List.iter
      (fun (t : Elle_log.txn) ->
        List.iter
          (fun op ->
            match op with
            | Elle_log.Read_list (k, l) ->
                let seen = Hashtbl.create 8 in
                List.iter
                  (fun e ->
                    if Hashtbl.mem seen e then
                      raise
                        (Bad
                           (Printf.sprintf "duplicate element %d in read of x%d"
                              e k));
                    Hashtbl.replace seen e ();
                    match Hashtbl.find_opt appender (k, e) with
                    | Some (_, Elle_log.Committed) -> ()
                    | Some (w, Elle_log.Aborted) ->
                        raise
                          (Bad
                             (Printf.sprintf
                                "T%d read element %d of x%d appended by \
                                 aborted T%d"
                                t.id e k w))
                    | None ->
                        raise
                          (Bad
                             (Printf.sprintf
                                "T%d read element %d of x%d appended by nobody"
                                t.id e k)))
                  l
            | Elle_log.Append _ -> ())
          t.ops)
      committed;
    (* Longest observed prefix per key; all reads must be prefix-compatible. *)
    let chains : (Op.key, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let rec is_prefix a b =
      match (a, b) with
      | [], _ -> true
      | x :: a', y :: b' -> x = y && is_prefix a' b'
      | _ :: _, [] -> false
    in
    List.iter
      (fun (t : Elle_log.txn) ->
        List.iter
          (fun op ->
            match op with
            | Elle_log.Read_list (k, l) -> (
                match Hashtbl.find_opt chains k with
                | None -> Hashtbl.replace chains k (ref l)
                | Some longest ->
                    if is_prefix l !longest then ()
                    else if is_prefix !longest l then longest := l
                    else
                      raise
                        (Bad
                           (Printf.sprintf
                              "incompatible read prefixes on x%d (divergent \
                               version orders)"
                              k)))
            | Elle_log.Append _ -> ())
          t.ops)
      committed;
    (* Dependency edges. *)
    let edges = ref [] in
    let add k u v = if u <> v then edges := (k, u, v) :: !edges in
    (* Session order. *)
    let last_in_session = Hashtbl.create 16 in
    List.iter
      (fun (t : Elle_log.txn) ->
        let v = Hashtbl.find vertex t.id in
        (match Hashtbl.find_opt last_in_session t.session with
        | Some prev -> add Kdep prev v
        | None -> add Kdep 0 v);
        Hashtbl.replace last_in_session t.session v)
      committed;
    (* Per-key chain edges: WW along the longest prefix, WR from the last
       element of each read, RW from each read to the next appender. *)
    let chain_arr k =
      match Hashtbl.find_opt chains k with Some l -> Array.of_list !l | None -> [||]
    in
    let appender_vertex k e =
      match Hashtbl.find_opt appender (k, e) with
      | Some (id, Elle_log.Committed) -> Hashtbl.find vertex id
      | _ -> assert false (* screened above *)
    in
    Hashtbl.iter
      (fun k _ ->
        let chain = chain_arr k in
        let len = Array.length chain in
        if len > 0 then begin
          add Kdep 0 (appender_vertex k chain.(0));
          for i = 0 to len - 2 do
            add Kdep (appender_vertex k chain.(i)) (appender_vertex k chain.(i + 1))
          done
        end)
      chains;
    List.iter
      (fun (t : Elle_log.txn) ->
        let rv = Hashtbl.find vertex t.id in
        List.iter
          (fun op ->
            match op with
            | Elle_log.Read_list (k, l) -> (
                let chain = chain_arr k in
                let i = List.length l in
                (match List.rev l with
                | [] -> add Kdep 0 rv
                | last :: _ -> add Kdep (appender_vertex k last) rv);
                if i < Array.length chain then
                  add Kanti rv (appender_vertex k chain.(i)))
            | Elle_log.Append _ -> ())
          t.ops)
      committed;
    if forbidden_cycle ~level ~n !edges then
      fail
        (Printf.sprintf "%s-forbidden dependency cycle inferred from appends"
           (Checker.level_name level))
    else { ok = true; reason = "no anomaly inferred" }
  with Bad reason -> fail reason

(* ------------------------------------------------------------------ *)
(* Read-write register mode: write-write order inferable only through
   read-modify-write transactions. *)

let check_registers ~level (h : History.t) =
  let idx = Index.build h in
  match Int_check.check idx with
  | Error v ->
      { ok = false; reason = Format.asprintf "%a" Int_check.pp_violation v }
  | Ok () ->
      let n = Index.num_vertices idx in
      let edges = ref [] in
      let add k u v = if u <> v then edges := (k, u, v) :: !edges in
      List.iter
        (fun (a, b) -> add Kdep (Index.vertex idx a) (Index.vertex idx b))
        (History.so_pairs h);
      (* WR always known; WW only via RMW; RW from those WW edges. *)
      let readers : (int * Op.key, int list ref) Hashtbl.t =
        Hashtbl.create 1024
      in
      let overwriters : (int * Op.key, int list ref) Hashtbl.t =
        Hashtbl.create 256
      in
      let push tbl key v =
        match Hashtbl.find_opt tbl key with
        | Some r -> r := v :: !r
        | None -> Hashtbl.replace tbl key (ref [ v ])
      in
      Array.iteri
        (fun sv (s : Txn.t) ->
          List.iter
            (fun (k, v) ->
              match Index.writer_of idx k v with
              | Index.Final w when w <> s.id ->
                  let wv = Index.vertex idx w in
                  add Kdep wv sv;
                  push readers (wv, k) sv;
                  if Txn.writes_key s k then begin
                    add Kdep wv sv;
                    push overwriters (wv, k) sv
                  end
              | Index.Final _ | Index.Intermediate _ | Index.Aborted _
              | Index.Nobody ->
                  ())
            (Txn.external_reads s))
        idx.committed;
      Hashtbl.iter
        (fun (wv, k) rs ->
          match Hashtbl.find_opt overwriters (wv, k) with
          | None -> ()
          | Some ws ->
              List.iter
                (fun r ->
                  List.iter (fun w -> if r <> w then add Kanti r w) !ws)
                !rs)
        readers;
      if forbidden_cycle ~level ~n !edges then
        {
          ok = false;
          reason =
            Printf.sprintf "%s-forbidden cycle in traceable dependencies"
              (Checker.level_name level);
        }
      else { ok = true; reason = "no anomaly inferred (blind writes unordered)" }
