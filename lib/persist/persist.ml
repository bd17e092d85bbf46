(* The durability manager behind a running server: one WAL writer per
   checking shard plus the generation protocol tying WALs to snapshots.

   Directory layout: [wal-<shard>-<gen>] and [snap-<shard>-<gen>].  The
   snapshot of generation [g] captures the state at the moment
   [wal-<s>-<g>] starts, so restore = load the newest valid snapshot,
   then replay that same generation's WAL tail.  Checkpoint order for a
   shard at generation [g]:

     1. write [snap-<s>-<g+1>] (tmp + fsync + rename + dir fsync);
     2. close [wal-<s>-<g>], create [wal-<s>-<g+1>], fsync dir;
     3. unlink the generation-[g] files.

   A crash between any two steps leaves a restorable prefix: the rename
   is the commit point, and a snapshot whose WAL is missing simply has
   an empty tail.  [open_dir] itself ends with a checkpoint under the
   *current* shard count, so restarting with a different [-j] re-homes
   every session ([sid mod nshards]) and rewrites the files to match —
   the WAL a shard appends to is always its own. *)

type replay_stats = {
  rs_frames : int;  (** WAL records replayed *)
  rs_ms : float;
  rs_sessions : int;  (** sessions restored *)
}

type t = {
  dir : string;
  nshards : int;
  sync : Wal.sync;
  on_fsync : int -> unit;  (* fsync duration ns, forwarded to Wal *)
  gens : int array;  (* per shard *)
  wals : Wal.writer array;
}

let wal_name ~shard ~gen = Printf.sprintf "wal-%d-%d" shard gen
let snap_name ~shard ~gen = Printf.sprintf "snap-%d-%d" shard gen

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* [(kind, shard, gen)] for every persistence file present. *)
let scan dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun name ->
         let parse kind prefix =
           match String.split_on_char '-' name with
           | [ p; s; g ] when p = prefix -> (
               match (int_of_string_opt s, int_of_string_opt g) with
               | Some s, Some g when s >= 0 && g >= 0 -> Some (kind, s, g)
               | _ -> None)
           | _ -> None
         in
         match parse `Wal "wal" with
         | Some _ as r -> r
         | None -> parse `Snap "snap")

(* ------------------------------------------------------------------ *)
(* Restore. *)

(* A restored session; [Live] states are never poisoned: replay renders
   a violation to [Poisoned] the moment it happens. *)
type session = {
  mutable last_seq : int;
  mutable state : Snapshot_store.state;
}

let apply_record ~render sessions count = function
  | Wal.R_open { sid; settings } ->
      if not (Hashtbl.mem sessions sid) then
        Hashtbl.replace sessions sid
          {
            last_seq = 0;
            state = Snapshot_store.Live (Online.of_settings settings);
          };
      incr count
  | Wal.R_feed { sid; seq; txn } -> (
      incr count;
      match Hashtbl.find_opt sessions sid with
      | None -> () (* session closed earlier in the log *)
      | Some s ->
          if seq > s.last_seq then begin
            s.last_seq <- seq;
            match s.state with
            | Snapshot_store.Poisoned _ -> ()
            | Snapshot_store.Live online -> (
                match Online.add_txn online txn with
                | Online.Ok_so_far -> ()
                | Online.Violation v ->
                    let settings = Online.settings online in
                    let anomaly, rendered = render ~level:settings.level v in
                    s.state <-
                      Snapshot_store.Poisoned { settings; anomaly; rendered }
                | exception Invalid_argument _ ->
                    (* the live server answered this with a protocol
                       close; the R_close record follows in the log *)
                    Hashtbl.remove sessions sid)
          end)
  | Wal.R_close { sid } ->
      incr count;
      Hashtbl.remove sessions sid

(* Load one legacy shard's sessions into [sessions]: newest valid
   snapshot generation, then that generation's WAL tail. *)
let restore_shard ~render dir shard gens_of_shard sessions count next_sid =
  let gens = List.sort_uniq (fun a b -> compare b a) gens_of_shard in
  let snap_base =
    List.find_map
      (fun gen ->
        let path = Filename.concat dir (snap_name ~shard ~gen) in
        if not (Sys.file_exists path) then
          (* a WAL with no same-generation snapshot is the pre-snapshot
             initial generation: empty base *)
          Some (gen, None)
        else
          match Snapshot_store.read path with
          | Ok info -> Some (gen, Some info)
          | Error _ -> None (* corrupt snapshot: fall to an older one *))
      gens
  in
  match snap_base with
  | None -> ()
  | Some (gen, info) ->
      (match info with
      | None -> ()
      | Some info ->
          if info.Snapshot_store.i_next_sid > !next_sid then
            next_sid := info.Snapshot_store.i_next_sid;
          List.iter
            (fun (e : Snapshot_store.entry) ->
              Hashtbl.replace sessions e.sid
                { last_seq = e.last_seq; state = e.state })
            info.Snapshot_store.i_entries);
      let wal_path = Filename.concat dir (wal_name ~shard ~gen) in
      if Sys.file_exists wal_path then begin
        match Wal.read_path wal_path with
        | Error _ -> ()
        | Ok (_, records, _tail) ->
            (* A torn or corrupt tail ends the replay at the last intact
               record — exactly the state the server had durably
               accepted. *)
            List.iter (apply_record ~render sessions count) records
      end

let checkpoint_files ~dir ~nshards ~sync ~on_fsync ~gen ~next_sid entries_of =
  let wals =
    Array.init nshards (fun shard ->
        Snapshot_store.write
          ~path:(Filename.concat dir (snap_name ~shard ~gen))
          ~shard ~nshards ~gen ~next_sid (entries_of shard);
        Wal.create ~on_fsync
          ~path:(Filename.concat dir (wal_name ~shard ~gen))
          ~shard ~nshards ~gen ~sync ())
  in
  fsync_dir dir;
  wals

let open_dir ?(on_fsync = fun _ -> ()) ~dir ~nshards ~sync ~render () =
  if nshards <= 0 then invalid_arg "Persist.open_dir: nshards must be > 0";
  match
    mkdir_p dir;
    let t0 = Unix.gettimeofday () in
    let files = scan dir in
    let sessions : (int, session) Hashtbl.t = Hashtbl.create 64 in
    let count = ref 0 and next_sid = ref 1 in
    let shards =
      List.sort_uniq compare (List.map (fun (_, s, _) -> s) files)
    in
    List.iter
      (fun shard ->
        let gens =
          List.filter_map
            (fun (_, s, g) -> if s = shard then Some g else None)
            files
        in
        restore_shard ~render dir shard gens sessions count next_sid)
      shards;
    Hashtbl.iter
      (fun sid _ -> if sid >= !next_sid then next_sid := sid + 1)
      sessions;
    let restored =
      Hashtbl.fold
        (fun sid s acc ->
          { Snapshot_store.sid; last_seq = s.last_seq; state = s.state } :: acc)
        sessions []
      |> List.sort (fun (a : Snapshot_store.entry) b -> compare a.sid b.sid)
    in
    (* Start a fresh generation under the current shard count; every
       session re-homes to [sid mod nshards]. *)
    let gen = 1 + List.fold_left (fun m (_, _, g) -> Stdlib.max m g) 0 files in
    let entries_of shard =
      List.filter
        (fun (e : Snapshot_store.entry) -> e.sid mod nshards = shard)
        restored
    in
    let wals =
      checkpoint_files ~dir ~nshards ~sync ~on_fsync ~gen
        ~next_sid:!next_sid entries_of
    in
    (* The new generation is durable; retire everything older. *)
    List.iter
      (fun (kind, s, g) ->
        let name =
          match kind with
          | `Wal -> wal_name ~shard:s ~gen:g
          | `Snap -> snap_name ~shard:s ~gen:g
        in
        try Unix.unlink (Filename.concat dir name)
        with Unix.Unix_error _ -> ())
      files;
    fsync_dir dir;
    let t =
      { dir; nshards; sync; on_fsync; gens = Array.make nshards gen; wals }
    in
    let stats =
      {
        rs_frames = !count;
        rs_ms = (Unix.gettimeofday () -. t0) *. 1000.;
        rs_sessions = List.length restored;
      }
    in
    (t, restored, !next_sid, stats)
  with
  | result -> Ok result
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s: %s(%s): %s" dir fn arg (Unix.error_message e))
  | exception Sys_error m -> Error m

let dir t = t.dir
let append t ~shard record = Wal.append t.wals.(shard) record
let flush t ~shard = Wal.flush t.wals.(shard)
let barrier t ~shard = Wal.barrier t.wals.(shard)

(* Per-shard checkpoint, called on the shard's own domain with that
   shard's current sessions.  Only this shard's files are touched, so
   concurrent checkpoints of different shards do not interfere. *)
let checkpoint t ~shard ~next_sid entries =
  let old_gen = t.gens.(shard) in
  let gen = old_gen + 1 in
  Snapshot_store.write
    ~path:(Filename.concat t.dir (snap_name ~shard ~gen))
    ~shard ~nshards:t.nshards ~gen ~next_sid entries;
  Wal.close t.wals.(shard);
  t.wals.(shard) <-
    Wal.create ~on_fsync:t.on_fsync
      ~path:(Filename.concat t.dir (wal_name ~shard ~gen))
      ~shard ~nshards:t.nshards ~gen ~sync:t.sync ();
  fsync_dir t.dir;
  List.iter
    (fun name ->
      try Unix.unlink (Filename.concat t.dir name)
      with Unix.Unix_error _ -> ())
    [ wal_name ~shard ~gen:old_gen; snap_name ~shard ~gen:old_gen ];
  t.gens.(shard) <- gen

let close t = Array.iter Wal.close t.wals
