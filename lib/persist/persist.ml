(* The durability manager behind a running server: one WAL writer per
   checking shard, one file per shard generation.

   Directory layout: [wal-<shard>-<gen>].  Generation [g]'s file opens
   with a checkpoint of the shard's sessions at the moment it started
   and then logs every open/feed/close after it, so restore = read the
   newest generation's file: apply its checkpoint, replay its tail.  A
   checkpoint of a shard at generation [g]:

     1. write [wal-<s>-<g+1>] (tmp + fsync + rename + dir fsync);
     2. close and unlink [wal-<s>-<g>].

   The rename is the commit point: a crash before it leaves [g] newest
   (and a [.tmp] that the next [open_dir] removes), a crash after it
   leaves [g+1] newest and [g] stale.  [open_dir] reads every shard's
   newest file before it changes anything, refuses by name one it
   cannot read (or an old-layout [snap-*] file), and then checkpoints
   under the *current* shard count, so restarting with a different [-j]
   re-homes every session ([sid mod nshards]) and rewrites the files to
   match — the WAL a shard appends to is always its own. *)

type replay_stats = {
  rs_frames : int;  (** tail records replayed *)
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

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Every persistence file present, by name: a generation file, a
   checkpoint head that never reached its rename, or a snapshot file of
   the older two-file layout. *)
let scan dir =
  Array.to_list (Sys.readdir dir)
  |> List.sort compare
  |> List.filter_map (fun name ->
         match String.split_on_char '-' name with
         | [ p; s; g ] -> (
             match (p, int_of_string_opt s, int_of_string_opt g) with
             | "wal", Some s, Some g when s >= 0 && g >= 0 ->
                 Some (name, `Gen (s, g))
             | "wal", Some _, None when Filename.check_suffix g ".tmp" ->
                 Some (name, `Tmp)
             | "snap", Some _, Some _ -> Some (name, `Snap)
             | _ -> None)
         | _ -> None)

(* ------------------------------------------------------------------ *)
(* Restore. *)

(* A restored session; [Live] states are never poisoned: replay renders
   a violation to [Poisoned] the moment it happens. *)
type session = { mutable last_seq : int; mutable state : Wal.state }

let apply_record ~render sessions = function
  | Wal.R_open { sid; settings } ->
      if not (Hashtbl.mem sessions sid) then
        Hashtbl.replace sessions sid
          { last_seq = 0; state = Wal.Live (Online.of_settings settings) }
  | Wal.R_feed { sid; seq; txn } -> (
      match Hashtbl.find_opt sessions sid with
      | None -> () (* session closed earlier in the log *)
      | Some s ->
          if seq > s.last_seq then begin
            s.last_seq <- seq;
            match s.state with
            | Wal.Poisoned _ -> ()
            | Wal.Live online -> (
                match Online.add_txn online txn with
                | Online.Ok_so_far -> ()
                | Online.Violation v ->
                    let settings = Online.settings online in
                    let anomaly, rendered = render ~level:settings.level v in
                    s.state <- Wal.Poisoned { settings; anomaly; rendered }
                | exception Invalid_argument _ ->
                    (* the live server answered this with a protocol
                       close; the R_close record follows in the log *)
                    Hashtbl.remove sessions sid)
          end)
  | Wal.R_close { sid } -> Hashtbl.remove sessions sid

exception Refused of string

(* Each shard's newest generation file, read whole; the first file that
   cannot be read refuses the directory. *)
let read_newest dir files =
  let newest = Hashtbl.create 8 in
  List.iter
    (function
      | name, `Snap ->
          raise
            (Refused
               (name
              ^ ": snapshot file of the older two-file layout (this build \
                 reads checkpoints from wal-* files only)"))
      | name, `Gen (s, g) -> (
          match Hashtbl.find_opt newest s with
          | Some (_, g') when g' >= g -> ()
          | _ -> Hashtbl.replace newest s (name, g))
      | _, `Tmp -> ())
    files;
  Hashtbl.fold (fun _ (name, _) acc -> name :: acc) newest []
  |> List.sort compare
  |> List.map (fun name ->
         match Wal.read_path (Filename.concat dir name) with
         | Ok contents -> contents
         | Error reason -> raise (Refused (name ^ ": " ^ reason)))

let open_dir ?(on_fsync = fun _ -> ()) ~dir ~nshards ~sync ~render () =
  if nshards <= 0 then invalid_arg "Persist.open_dir: nshards must be > 0";
  match
    mkdir_p dir;
    let t0 = Unix.gettimeofday () in
    let files = scan dir in
    let newest = read_newest dir files in
    let sessions : (int, session) Hashtbl.t = Hashtbl.create 64 in
    let frames = ref 0 and next_sid = ref 1 in
    List.iter
      (fun ((h : Wal.header), entries, records, _tail) ->
        next_sid := Stdlib.max !next_sid h.h_next_sid;
        List.iter
          (fun (e : Wal.entry) ->
            Hashtbl.replace sessions e.sid
              { last_seq = e.last_seq; state = e.state })
          entries;
        (* A torn or corrupt tail ends the replay at the last intact
           record — exactly the state the server had durably accepted. *)
        List.iter (apply_record ~render sessions) records;
        frames := !frames + List.length records)
      newest;
    Hashtbl.iter
      (fun sid _ -> if sid >= !next_sid then next_sid := sid + 1)
      sessions;
    let restored =
      Hashtbl.fold
        (fun sid s acc ->
          { Wal.sid; last_seq = s.last_seq; state = s.state } :: acc)
        sessions []
      |> List.sort (fun (a : Wal.entry) b -> compare a.sid b.sid)
    in
    (* Start a fresh generation under the current shard count; every
       session re-homes to [sid mod nshards]. *)
    let gen =
      1
      + List.fold_left
          (fun m -> function _, `Gen (_, g) -> Stdlib.max m g | _ -> m)
          0 files
    in
    let wals =
      Array.init nshards (fun shard ->
          Wal.create ~on_fsync
            ~path:(Filename.concat dir (wal_name ~shard ~gen))
            ~shard ~nshards ~gen ~next_sid:!next_sid ~sync
            (List.filter
               (fun (e : Wal.entry) -> e.sid mod nshards = shard)
               restored))
    in
    (* The new generation is durable; retire everything older. *)
    List.iter
      (fun (name, _) ->
        try Unix.unlink (Filename.concat dir name)
        with Unix.Unix_error _ -> ())
      files;
    let t =
      { dir; nshards; sync; on_fsync; gens = Array.make nshards gen; wals }
    in
    let stats =
      {
        rs_frames = !frames;
        rs_ms = (Unix.gettimeofday () -. t0) *. 1000.;
        rs_sessions = List.length restored;
      }
    in
    (t, restored, !next_sid, stats)
  with
  | result -> Ok result
  | exception Refused m -> Error m
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
  let w =
    Wal.create ~on_fsync:t.on_fsync
      ~path:(Filename.concat t.dir (wal_name ~shard ~gen))
      ~shard ~nshards:t.nshards ~gen ~next_sid ~sync:t.sync entries
  in
  Wal.close t.wals.(shard);
  t.wals.(shard) <- w;
  t.gens.(shard) <- gen;
  try Unix.unlink (Filename.concat t.dir (wal_name ~shard ~gen:old_gen))
  with Unix.Unix_error _ -> ()

let close t = Array.iter Wal.close t.wals
