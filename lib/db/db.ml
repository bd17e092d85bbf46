type config = {
  level : Isolation.level;
  fault : Fault.mode;
  num_keys : int;
  seed : int;
}

type stats = {
  mutable commits : int;
  mutable aborts_ww : int;
  mutable aborts_ssi : int;
  mutable aborts_wound : int;
  mutable aborts_user : int;
}

(* SSI bookkeeping survives a transaction's lifetime: committed
   transactions can be discovered as dangerous-structure pivots later. *)
type conflict_info = {
  c_snapshot : int;
  mutable c_commit : int;  (** [max_int] while active *)
  mutable in_rw : bool;
  mutable out_rw : bool;
}

type handle = {
  txn_id : Txn.id;
  session : int;
  replica : int;
  start_ts : int;
  mutable ops : Op.t list;  (** reversed *)
  write_buf : (Op.key, Op.value) Hashtbl.t;
  read_keys : (Op.key, unit) Hashtbl.t;
  mutable doomed : bool;
  mutable finished : bool;
}

type t = {
  cfg : config;
  store : Mvcc.t;
  locks : Locking.t;
  rng : Rng.t;
  mutable clock : int;
  mutable next_txn : int;
  mutable last_reported : int;  (** last commit_ts handed to a client *)
  conflicts : (Txn.id, conflict_info) Hashtbl.t;
  sireads : (Op.key, Txn.id list ref) Hashtbl.t;
  active : (Txn.id, handle) Hashtbl.t;
  session_of : (Txn.id, int) Hashtbl.t;
  stats : stats;
}

let create cfg =
  {
    cfg;
    store = Mvcc.create ~num_keys:cfg.num_keys;
    locks = Locking.create ~num_keys:cfg.num_keys;
    rng = Rng.create cfg.seed;
    clock = 1;
    next_txn = 1;
    last_reported = 0;
    conflicts = Hashtbl.create 1024;
    sireads = Hashtbl.create 1024;
    active = Hashtbl.create 64;
    session_of = Hashtbl.create 1024;
    stats =
      { commits = 0; aborts_ww = 0; aborts_ssi = 0; aborts_wound = 0;
        aborts_user = 0 };
  }

let config t = t.cfg
let now t = t.clock
let stats t = t.stats

let total_aborts s = s.aborts_ww + s.aborts_ssi + s.aborts_wound + s.aborts_user

let tick t =
  let c = t.clock in
  t.clock <- c + 1;
  c

let begin_txn t ~session =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  let start_ts = tick t in
  let h =
    {
      txn_id = id;
      session;
      replica = session mod Mvcc.num_replicas;
      start_ts;
      ops = [];
      write_buf = Hashtbl.create 4;
      read_keys = Hashtbl.create 4;
      doomed = false;
      finished = false;
    }
  in
  Hashtbl.replace t.active id h;
  Hashtbl.replace t.session_of id session;
  Hashtbl.replace t.conflicts id
    { c_snapshot = start_ts; c_commit = max_int; in_rw = false; out_rw = false };
  h

let handle_id h = h.txn_id
let handle_session h = h.session
let handle_start h = h.start_ts
let handle_ops h = List.rev h.ops

type read_result = Rvalue of Op.value | Rblocked | Rdoomed
type write_result = Wok | Wblocked | Wdoomed

type abort_reason = Ww_conflict | Dangerous_structure | Wounded | User_abort

let fault_trips t p = p > 0.0 && Rng.chance t.rng p

let doom t victim =
  match Hashtbl.find_opt t.active victim with
  | Some h -> h.doomed <- true
  | None -> ()

let record_siread t h k =
  (match Hashtbl.find_opt t.sireads k with
  | Some r -> if not (List.mem h.txn_id !r) then r := h.txn_id :: !r
  | None -> Hashtbl.replace t.sireads k (ref [ h.txn_id ]));
  Hashtbl.replace h.read_keys k ()

(* The version a read observes, before fault injection.  The stale-read
   fault never hides a session's own writes (clients observe their own
   effects even on the buggy systems this replicates), so it corrupts only
   cross-session causality. *)
let mvcc_read_version t h k ~at =
  let v = Mvcc.visible_at t.store ~key:k ~replica:h.replica ~ts:at in
  match t.cfg.fault with
  | Fault.Causality_violation p
    when Hashtbl.find_opt t.session_of v.Mvcc.writer <> Some h.session
         && fault_trips t p -> (
      match Mvcc.predecessor t.store ~key:k v with
      | Some older
        when Hashtbl.find_opt t.session_of older.Mvcc.writer
             <> Some h.session ->
          older
      | Some _ | None -> v)
  | _ -> v

let read t h k =
  let _ = tick t in
  if h.doomed then Rdoomed
  else
    match t.cfg.level with
    | Isolation.Strict_serializable -> (
        match
          Locking.acquire t.locks ~kind:`Shared ~key:k ~txn:h.txn_id
            ~age:h.start_ts
        with
        | Locking.Blocked -> Rblocked
        | Locking.Granted | Locking.Granted_wounding _ as g ->
            (match g with
            | Locking.Granted_wounding victims -> List.iter (doom t) victims
            | _ -> ());
            let value =
              match Hashtbl.find_opt h.write_buf k with
              | Some v -> v
              | None -> (Mvcc.visible_at t.store ~key:k ~replica:h.replica ~ts:t.clock).Mvcc.value
            in
            h.ops <- Op.Read (k, value) :: h.ops;
            Rvalue value)
    | Isolation.Read_committed | Isolation.Snapshot | Isolation.Serializable ->
        let value =
          match Hashtbl.find_opt h.write_buf k with
          | Some v -> v
          | None ->
              let at =
                match t.cfg.level with
                | Isolation.Read_committed -> t.clock
                | _ -> h.start_ts
              in
              (mvcc_read_version t h k ~at).Mvcc.value
        in
        if t.cfg.level = Isolation.Serializable then record_siread t h k;
        h.ops <- Op.Read (k, value) :: h.ops;
        Rvalue value

let write t h k v =
  let _ = tick t in
  if h.doomed then Wdoomed
  else
    match t.cfg.level with
    | Isolation.Strict_serializable -> (
        match
          Locking.acquire t.locks ~kind:`Exclusive ~key:k ~txn:h.txn_id
            ~age:h.start_ts
        with
        | Locking.Blocked -> Wblocked
        | Locking.Granted | Locking.Granted_wounding _ as g ->
            (match g with
            | Locking.Granted_wounding victims -> List.iter (doom t) victims
            | _ -> ());
            Hashtbl.replace h.write_buf k v;
            h.ops <- Op.Write (k, v) :: h.ops;
            Wok)
    | Isolation.Read_committed | Isolation.Snapshot | Isolation.Serializable ->
        Hashtbl.replace h.write_buf k v;
        h.ops <- Op.Write (k, v) :: h.ops;
        Wok

let install_writes t h ~commit_ts =
  let lag_for () =
    match t.cfg.fault with
    | Fault.Long_fork p when fault_trips t p ->
        Some (1 - h.replica, commit_ts + 64)
    | _ -> None
  in
  Hashtbl.iter
    (fun k v ->
      Mvcc.install t.store ~key:k ~value:v ~writer:h.txn_id ~commit_ts
        ~lag:(lag_for ()))
    h.write_buf

let finish t h =
  h.finished <- true;
  Hashtbl.remove t.active h.txn_id;
  if t.cfg.level = Isolation.Strict_serializable then
    Locking.release_all t.locks ~txn:h.txn_id

let do_abort t h reason =
  (* The MongoDB-style leak: an aborted transaction's writes become
     visible even though the client is told it failed. *)
  (match t.cfg.fault with
  | Fault.Aborted_read p
    when Hashtbl.length h.write_buf > 0 && fault_trips t p ->
      install_writes t h ~commit_ts:(tick t)
  | _ -> ());
  (match Hashtbl.find_opt t.conflicts h.txn_id with
  | Some info -> info.c_commit <- max_int  (* stays non-committed *)
  | None -> ());
  Hashtbl.remove t.conflicts h.txn_id;
  (match reason with
  | Ww_conflict -> t.stats.aborts_ww <- t.stats.aborts_ww + 1
  | Dangerous_structure -> t.stats.aborts_ssi <- t.stats.aborts_ssi + 1
  | Wounded -> t.stats.aborts_wound <- t.stats.aborts_wound + 1
  | User_abort -> t.stats.aborts_user <- t.stats.aborts_user + 1);
  finish t h

type commit_result = Committed of int | Rejected of abort_reason

let is_pivot info = info.in_rw && info.out_rw

(* SSI commit-time certification.  Returns true iff committing is safe. *)
let ssi_certify t h ~commit_ts =
  let info = Hashtbl.find t.conflicts h.txn_id in
  let danger = ref false in
  let note_committed_pivot (other : conflict_info) =
    if other.c_commit < max_int && is_pivot other then danger := true
  in
  (* Outgoing edges: we read something a concurrent transaction
     overwrote. *)
  Hashtbl.iter
    (fun k () ->
      List.iter
        (fun writer ->
          if writer <> h.txn_id then
            match Hashtbl.find_opt t.conflicts writer with
            | Some w_info ->
                info.out_rw <- true;
                w_info.in_rw <- true;
                note_committed_pivot w_info
            | None -> ())
        (Mvcc.newest_writer_after t.store ~key:k ~ts:h.start_ts))
    h.read_keys;
  (* Incoming edges: a concurrent transaction read what we overwrite. *)
  Hashtbl.iter
    (fun k _v ->
      match Hashtbl.find_opt t.sireads k with
      | None -> ()
      | Some readers ->
          List.iter
            (fun r ->
              if r <> h.txn_id then
                match Hashtbl.find_opt t.conflicts r with
                | Some r_info
                  when r_info.c_snapshot < commit_ts
                       && r_info.c_commit > h.start_ts ->
                    info.in_rw <- true;
                    r_info.out_rw <- true;
                    note_committed_pivot r_info
                | Some _ | None -> ())
            !readers)
    h.write_buf;
  (not (is_pivot info)) && not !danger

(* Timestamp-oracle faults lie only in the commit timestamp *returned*
   to the client — the versions installed in the store (and the SSI
   bookkeeping) keep the real one, so the history's values stay those of
   a correct engine and only certification can tell.  The lie is clamped
   to [start_ts] so the reported window stays well-formed. *)
let reported_commit t h ~commit_ts =
  let lie =
    match t.cfg.fault with
    | Fault.Ts_skew p when fault_trips t p ->
        Some (commit_ts + Rng.int t.rng 17 - 8)
    | Fault.Ts_reorder p when fault_trips t p -> Some h.start_ts
    | Fault.Ts_dup p when fault_trips t p -> Some t.last_reported
    | _ -> None
  in
  let r =
    match lie with Some ts -> Stdlib.max h.start_ts ts | None -> commit_ts
  in
  t.last_reported <- r;
  r

let commit t h =
  if h.doomed then begin
    do_abort t h Wounded;
    Rejected Wounded
  end
  else
    let commit_ts = tick t in
    match t.cfg.level with
    | Isolation.Strict_serializable | Isolation.Read_committed ->
        install_writes t h ~commit_ts;
        (match Hashtbl.find_opt t.conflicts h.txn_id with
        | Some info -> info.c_commit <- commit_ts
        | None -> ());
        t.stats.commits <- t.stats.commits + 1;
        finish t h;
        Committed (reported_commit t h ~commit_ts)
    | Isolation.Snapshot | Isolation.Serializable ->
        let skip_all =
          match t.cfg.fault with
          | Fault.Lost_update p -> fault_trips t p
          | _ -> false
        in
        let ww_conflict =
          (not skip_all)
          && Hashtbl.fold
               (fun k _v acc ->
                 acc || Mvcc.newer_than t.store ~key:k ~ts:h.start_ts)
               h.write_buf false
        in
        if ww_conflict then begin
          do_abort t h Ww_conflict;
          Rejected Ww_conflict
        end
        else
          let skip_ssi =
            skip_all
            ||
            match t.cfg.fault with
            | Fault.Write_skew p -> fault_trips t p
            | _ -> false
          in
          let ssi_ok =
            t.cfg.level <> Isolation.Serializable
            || skip_ssi
            || ssi_certify t h ~commit_ts
          in
          if not ssi_ok then begin
            do_abort t h Dangerous_structure;
            Rejected Dangerous_structure
          end
          else begin
            install_writes t h ~commit_ts;
            (Hashtbl.find t.conflicts h.txn_id).c_commit <- commit_ts;
            t.stats.commits <- t.stats.commits + 1;
            finish t h;
            Committed (reported_commit t h ~commit_ts)
          end

let abort t h =
  if not h.finished then
    do_abort t h (if h.doomed then Wounded else User_abort)
