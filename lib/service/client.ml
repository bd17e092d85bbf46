(* Blocking client for the MTC checking service — used by `mtc feed`,
   the tests and the throughput bench.

   The client is single-threaded: writes are synchronous, and reads
   happen either blocking (when waiting for a specific reply) or
   opportunistically (a zero-timeout poll before each [feed], so an
   early violation verdict or a throttle advisory is noticed while
   streaming without a round-trip per transaction).  Frames that arrive
   while waiting for something else are dispatched into the client
   state: verdicts per session, throttle counters, closed-session
   reasons. *)

type verdict_box = {
  mutable verdicts : (int * Wire.verdict) list;  (** (seq, verdict), newest first *)
}

type t = {
  fd : Unix.file_descr;
  out : Wire.out_bufs;
  mutable next_seq : int;
  mutable server : string;  (** banner from [Welcome] *)
  mutable throttles : int;
  mutable resumes : int;
  mutable last_stats : string option;
  sessions : (int, verdict_box) Hashtbl.t;
  closed : (int, Wire.close_reason) Hashtbl.t;
  mutable bye : bool;
}

let server_name t = t.server
let throttles t = t.throttles

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let seq_floor t n = if t.next_seq < n then t.next_seq <- n

(* Internal seqs (syncs) live far above any plausible transaction
   position, so explicit position-based feed seqs never collide. *)
let sync_seq_base = 1_000_000_000

let send t frame =
  try
    Wire.write_frame t.fd t.out frame;
    Ok ()
  with Unix.Unix_error (e, _, _) -> Result.Error (Unix.error_message e)

(* Route a frame that is not the one currently awaited. *)
let dispatch t frame =
  match frame with
  | Wire.Verdict { sid; seq; verdict } -> (
      match Hashtbl.find_opt t.sessions sid with
      | Some box -> box.verdicts <- (seq, verdict) :: box.verdicts
      | None -> ())
  | Wire.Throttle _ -> t.throttles <- t.throttles + 1
  | Wire.Resume _ -> t.resumes <- t.resumes + 1
  | Wire.Session_closed { sid; reason } -> Hashtbl.replace t.closed sid reason
  | Wire.Stats_reply { json } -> t.last_stats <- Some json
  | Wire.Bye -> t.bye <- true
  | _ -> ()

(* Blocking read of the next frame, dispatching it unless [want] claims
   it. *)
let rec next_matching t ~want =
  if t.bye then Result.Error "server said bye"
  else
    match Wire.read_frame t.fd with
    | Result.Error m -> Result.Error m
    | Ok None -> Result.Error "connection closed by server"
    | Ok (Some frame) -> (
        match want frame with
        | Some v -> Ok v
        | None ->
            dispatch t frame;
            next_matching t ~want)

(* Drain whatever is already readable without blocking. *)
let poll t =
  let rec go () =
    match Unix.select [ t.fd ] [] [] 0.0 with
    | [], _, _ -> ()
    | _, _, _ -> (
        match Wire.read_frame t.fd with
        | Ok (Some frame) ->
            dispatch t frame;
            go ()
        | Ok None | Result.Error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let connect addr =
  try
    let fd =
      match addr with
      | Server.A_unix path ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          fd
      | Server.A_tcp (host, port) ->
          let inet =
            try Unix.inet_addr_of_string host
            with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
          in
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_INET (inet, port));
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          fd
    in
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let t =
      {
        fd;
        out = Wire.out_bufs ();
        next_seq = 1;
        server = "";
        throttles = 0;
        resumes = 0;
        last_stats = None;
        sessions = Hashtbl.create 4;
        closed = Hashtbl.create 4;
        bye = false;
      }
    in
    match send t (Wire.Hello { version = Wire.version }) with
    | Result.Error _ as e ->
        Unix.close fd;
        e
    | Ok () -> (
        match
          next_matching t ~want:(function
            | Wire.Welcome { server; _ } -> Some (Ok server)
            | Wire.Error { msg; _ } -> Some (Result.Error msg)
            | _ -> None)
        with
        | Ok (Ok server) ->
            t.server <- server;
            Ok t
        | Ok (Result.Error m) | Result.Error m ->
            Unix.close fd;
            Result.Error ("handshake refused: " ^ m))
  with
  | Unix.Unix_error (e, _, _) -> Result.Error (Unix.error_message e)
  | Not_found -> Result.Error "host not found"

let close t =
  ignore (send t Wire.Bye);
  (try Unix.close t.fd with Unix.Unix_error _ -> ())

let open_session t ~level ~num_keys ?(skew = 0) ?(ts = Ts.Ignore) ?gc () =
  match send t (Wire.Open_session { level; num_keys; skew; ts; gc }) with
  | Result.Error _ as e -> e
  | Ok () -> (
      match
        next_matching t ~want:(function
          | Wire.Session_opened { sid } -> Some (Ok sid)
          | Wire.Error { msg; _ } -> Some (Result.Error msg)
          | _ -> None)
      with
      | Ok (Ok sid) ->
          Hashtbl.replace t.sessions sid { verdicts = [] };
          Ok sid
      | Ok (Result.Error m) -> Result.Error m
      | Result.Error m -> Result.Error m)

let resume_session t ~sid =
  match send t (Wire.Resume_session { sid }) with
  | Result.Error _ as e -> e
  | Ok () -> (
      match
        next_matching t ~want:(function
          | Wire.Session_resumed { sid = s; last_seq } when s = sid ->
              Some (Ok last_seq)
          | Wire.Error { msg; _ } -> Some (Result.Error msg)
          | _ -> None)
      with
      | Ok (Ok last_seq) ->
          Hashtbl.replace t.sessions sid { verdicts = [] };
          Hashtbl.remove t.closed sid;
          Ok last_seq
      | Ok (Result.Error m) | Result.Error m -> Result.Error m)

let session_closed t ~sid = Hashtbl.find_opt t.closed sid

(* The first violation the session has reported, if any (any seq). *)
let violation_of_box box =
  List.find_map
    (fun (_, v) -> match v with Wire.V_violation _ -> Some v | _ -> None)
    box.verdicts

type feed_outcome = Accepted | Early_verdict of Wire.verdict

let feed ?seq t ~sid txn =
  match Hashtbl.find_opt t.sessions sid with
  | None -> Result.Error (Printf.sprintf "unknown session %d" sid)
  | Some box -> (
      poll t;
      match violation_of_box box with
      | Some v -> Ok (Early_verdict v)
      | None -> (
          match session_closed t ~sid with
          | Some _ -> Result.Error (Printf.sprintf "session %d closed" sid)
          | None -> (
              let seq =
                match seq with Some s -> s | None -> fresh_seq t
              in
              match send t (Wire.Feed { sid; seq; txn }) with
              | Result.Error _ as e -> e
              | Ok () -> Ok Accepted)))

let reason_message sid reason =
  Printf.sprintf "session %d closed (%s)" sid
    (match reason with
    | Wire.R_requested -> "requested"
    | Wire.R_idle -> "idle timeout"
    | Wire.R_shutdown -> "server shutdown"
    | Wire.R_pinned -> "fenced: pinned the GC horizon"
    | Wire.R_protocol m -> "protocol: " ^ m)

(* Waits whose terminal frames include [Session_closed] for our session
   and generic [Error] replies — anything else would hang the blocking
   client on a session the server already gave up on. *)
let sync t ~sid =
  match Hashtbl.find_opt t.sessions sid with
  | None -> Result.Error (Printf.sprintf "unknown session %d" sid)
  | Some box -> (
      match violation_of_box box with
      | Some v -> Ok v
      | None -> (
          match session_closed t ~sid with
          | Some reason -> Result.Error (reason_message sid reason)
          | None -> (
              let seq = fresh_seq t in
              match send t (Wire.Sync { sid; seq }) with
              | Result.Error _ as e -> e
              | Ok () -> (
                  match
                    next_matching t ~want:(function
                      | Wire.Verdict { sid = s; seq = q; verdict }
                        when s = sid && q = seq ->
                          Some (Ok verdict)
                      | Wire.Verdict
                          { sid = s; verdict = Wire.V_violation _ as v; _ }
                        when s = sid ->
                          (* a violation from an earlier feed outranks
                             the sync ack we were waiting for *)
                          Some (Ok v)
                      | Wire.Session_closed { sid = s; reason } when s = sid ->
                          Hashtbl.replace t.closed s reason;
                          Some (Result.Error (reason_message sid reason))
                      | Wire.Error { msg; _ } -> Some (Result.Error msg)
                      | _ -> None)
                  with
                  | Ok r -> r
                  | Result.Error _ as e -> e))))

let stats t =
  match send t Wire.Stats_request with
  | Result.Error _ as e -> e
  | Ok () -> (
      match
        next_matching t ~want:(function
          | Wire.Stats_reply { json } -> Some (Ok json)
          | Wire.Error { msg; _ } -> Some (Result.Error msg)
          | _ -> None)
      with
      | Ok r -> r
      | Result.Error _ as e -> e)

let session_stats t =
  match send t Wire.Session_stats_request with
  | Result.Error _ as e -> e
  | Ok () -> (
      match
        next_matching t ~want:(function
          | Wire.Session_stats_reply { sessions; events; journal_dropped } ->
              Some (Ok (sessions, events, journal_dropped))
          | Wire.Error { msg; _ } -> Some (Result.Error msg)
          | _ -> None)
      with
      | Ok r -> r
      | Result.Error _ as e -> e)

let close_session t ~sid =
  match session_closed t ~sid with
  | Some _ -> Ok ()
  | None -> (
      match send t (Wire.Close_session { sid }) with
      | Result.Error _ as e -> e
      | Ok () -> (
          match
            next_matching t ~want:(function
              | Wire.Session_closed { sid = s; reason } when s = sid ->
                  Hashtbl.replace t.closed s reason;
                  Some (Ok ())
              | Wire.Error { msg; _ } -> Some (Result.Error msg)
              | _ -> None)
          with
          | Ok r -> r
          | Result.Error _ as e -> e))

(* Stream a whole history in commit order (what a monitoring proxy would
   see), stopping early if the server reports a violation, then sync for
   the final verdict. *)
let stream_order (h : History.t) =
  Array.to_list h.History.txns
  |> List.filter (fun (x : Txn.t) -> x.Txn.id <> History.init_id)
  |> List.sort (fun (a : Txn.t) b ->
         compare (a.Txn.commit_ts, a.Txn.id) (b.Txn.commit_ts, b.Txn.id))

(* Feed seqs are transaction positions (1-based in stream order): on a
   durable server they double as the resume cursor, so a client that
   re-attaches after a crash skips everything at or below the
   server-reported [last_seq] and continues from the exact next
   transaction.  Syncs use the internal counter, floored clear of
   them. *)
let feed_history ?(resume_from = 0) ?(ack_every = 0) ?(delay = 0.0) t ~sid
    (h : History.t) =
  seq_floor t sync_seq_base;
  let rec go pos since = function
    | [] -> sync t ~sid
    | txn :: rest ->
        if pos <= resume_from then go (pos + 1) since rest
        else (
          match feed ~seq:pos t ~sid txn with
          | Result.Error _ as e -> e
          | Ok (Early_verdict v) -> Ok v
          | Ok Accepted ->
              (* pace between transactions, not before the first: a
                 large delay models a producer that fed and stalled *)
              if delay > 0.0 && rest <> [] then Unix.sleepf delay;
              if ack_every > 0 && since + 1 >= ack_every then (
                match sync t ~sid with
                | Result.Error _ as e -> e
                | Ok (Wire.V_violation _ as v) -> Ok v
                | Ok (Wire.V_ok _) -> go (pos + 1) 0 rest)
              else go (pos + 1) (since + 1) rest)
  in
  go 1 0 (stream_order h)
