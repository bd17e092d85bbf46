(* One `mtc serve` child and the runner's single connection to it. *)

type t = { pid : int; client : Client.t }

(* Relative to the run's work directory, which keeps the path short
   whatever the checkout's location (sun_path holds 108 bytes). *)
let sock = "mtc.sock"

(* Feed seqs are stream positions; the client's own syncs are numbered
   above this floor so the two never collide. *)
let sync_seq_floor = 1_000_000_000

let start ~mtc args =
  (try Sys.remove sock with Sys_error _ -> ());
  let pid = Proc.spawn ~log:"serve.log" mtc ([ "serve"; "--listen"; "unix:" ^ sock ] @ args) in
  let addr = Server.A_unix sock in
  let deadline = Measure.now () +. 30.0 in
  let rec connect () =
    match Client.connect addr with
    | Ok client ->
        Client.seq_floor client sync_seq_floor;
        { pid; client }
    | Error e -> (
        match Proc.try_wait pid with
        | Some u ->
            failwith
              (Printf.sprintf "mtc serve exited with code %d before accepting:\n%s"
                 u.Proc.code (Proc.read_file "serve.log"))
        | None when Measure.now () > deadline ->
            failwith ("mtc serve did not accept a connection: " ^ e)
        | None ->
            Unix.sleepf 0.002;
            connect ())
  in
  connect ()

let stop t =
  Client.close t.client;
  Proc.stop t.pid

let stats t =
  match Client.stats t.client with
  | Ok json -> Json.parse json
  | Error e -> failwith ("stats frame: " ^ e)

let stat j key = Json.to_float (Json.path key j)

(* Σ feed_ns: the server reports the count and the mean. *)
let feed_ns_sum j = stat j "feed_ns.count" *. stat j "feed_ns.mean"

(* The small faulty history must poison its session. *)
let faulty_session tally t ~level h =
  let c = t.client in
  match Client.open_session c ~level ~num_keys:h.History.num_keys () with
  | Error e -> Measure.expect tally false "opening the faulty session: %s" e
  | Ok sid -> (
      match Client.feed_history c ~sid h with
      | Ok (Wire.V_violation _) ->
          Measure.expect tally true "";
          ignore (Client.close_session c ~sid)
      | Ok (Wire.V_ok n) ->
          Measure.expect tally false
            "the service accepted the faulty history (V_ok %d)" n
      | Error e -> Measure.expect tally false "faulty session: %s" e)
